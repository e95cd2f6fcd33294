/** @file Binary trace file round-trip tests plus the typed-error
 *  contract of loadTrace: every malformed input yields a SimError with
 *  kind/path/offset/reason populated — never a crash and never a silent
 *  empty trace. */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "sim/rng.hh"
#include "trace/generators.hh"
#include "trace/trace_io.hh"
#include "verify/sim_error.hh"

namespace berti
{

namespace
{

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/berti_" + tag +
           ".trace";
}

long
sizeOf(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    return size;
}

} // namespace

TEST(TraceIo, RoundTripPreservesEveryField)
{
    std::vector<TraceInstr> instrs;
    TraceInstr a;
    a.ip = 0x400010;
    a.load0 = 0x10000040;
    a.load1 = 0x10000080;
    instrs.push_back(a);
    TraceInstr b;
    b.ip = 0x400014;
    b.store = 0x20000000;
    b.isBranch = true;
    b.taken = true;
    instrs.push_back(b);
    TraceInstr c;
    c.ip = 0x400018;
    c.load0 = 0x30000000;
    c.dependsOnPrevLoad = true;
    instrs.push_back(c);

    std::string path = tempPath("roundtrip");
    ASSERT_TRUE(saveTrace(path, instrs));
    auto result = loadTrace(path);
    ASSERT_TRUE(result.ok());
    const auto &loaded = result.value();
    ASSERT_EQ(loaded.size(), instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        EXPECT_EQ(loaded[i].ip, instrs[i].ip);
        EXPECT_EQ(loaded[i].load0, instrs[i].load0);
        EXPECT_EQ(loaded[i].load1, instrs[i].load1);
        EXPECT_EQ(loaded[i].store, instrs[i].store);
        EXPECT_EQ(loaded[i].isBranch, instrs[i].isBranch);
        EXPECT_EQ(loaded[i].taken, instrs[i].taken);
        EXPECT_EQ(loaded[i].dependsOnPrevLoad,
                  instrs[i].dependsOnPrevLoad);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RecordsGeneratorOutput)
{
    StreamGen::Params p;
    StreamGen gen(p);
    std::string path = tempPath("gen");
    ASSERT_TRUE(saveTrace(path, gen, 5000));

    // Replaying matches a fresh generator instance exactly.
    FileReplayGen replay(path);
    EXPECT_EQ(replay.traceLength(), 5000u);
    StreamGen fresh(p);
    for (int i = 0; i < 5000; ++i) {
        TraceInstr a = replay.next();
        TraceInstr b = fresh.next();
        ASSERT_EQ(a.ip, b.ip);
        ASSERT_EQ(a.load0, b.load0);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayWrapsAround)
{
    std::vector<TraceInstr> instrs(3);
    instrs[0].ip = 1;
    instrs[1].ip = 2;
    instrs[2].ip = 3;
    std::string path = tempPath("wrap");
    ASSERT_TRUE(saveTrace(path, instrs));
    FileReplayGen replay(path);
    EXPECT_EQ(replay.next().ip, 1u);
    EXPECT_EQ(replay.next().ip, 2u);
    EXPECT_EQ(replay.next().ip, 3u);
    EXPECT_EQ(replay.next().ip, 1u);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileYieldsTypedError)
{
    auto result = loadTrace("/nonexistent/nowhere.trace");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
    EXPECT_EQ(result.error().path(), "/nonexistent/nowhere.trace");
    EXPECT_EQ(result.error().offset(), 0u);
    EXPECT_NE(result.error().reason().find("cannot open"),
              std::string::npos);

    // FileReplayGen surfaces the same typed error instead of a generic
    // runtime_error.
    EXPECT_THROW(FileReplayGen("/nonexistent/nowhere.trace"),
                 verify::SimError);
}

TEST(TraceIo, ResultValueRethrowsTheStoredError)
{
    auto result = loadTrace("/nonexistent/nowhere.trace");
    ASSERT_FALSE(result.ok());
    try {
        (void)result.value();
        FAIL() << "value() on an error Result must throw";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
        EXPECT_EQ(e.path(), "/nonexistent/nowhere.trace");
    }
}

TEST(TraceIo, BadMagicRejected)
{
    std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACEFILE___", f);
    std::fclose(f);
    auto result = loadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
    EXPECT_EQ(result.error().offset(), 0u);
    EXPECT_NE(result.error().reason().find("magic"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedHeaderRejected)
{
    // Shorter than the 8-byte magic.
    std::string path = tempPath("nohdr");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("BER", f);
    std::fclose(f);
    auto result = loadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().reason().find("truncated header"),
              std::string::npos);

    // Valid magic but the record count is missing.
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("BERTITR1", f);
    std::fclose(f);
    result = loadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().offset(), 8u);
    EXPECT_NE(result.error().reason().find("record count"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, HostileRecordCountRejectedBeforeAllocation)
{
    // Two real records but a header claiming ~2^60: the loader must
    // reject the count against the file size, not trust it.
    std::vector<TraceInstr> instrs(2);
    std::string path = tempPath("hostilecount");
    ASSERT_TRUE(saveTrace(path, instrs));
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::uint64_t bogus = 1ull << 60;
    std::fseek(f, 8, SEEK_SET);
    ASSERT_EQ(std::fwrite(&bogus, 8, 1, f), 1u);
    std::fclose(f);
    auto result = loadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
    EXPECT_EQ(result.error().offset(), 8u);
    EXPECT_NE(result.error().reason().find("exceeds file capacity"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedRecordReportsItsOffset)
{
    std::vector<TraceInstr> instrs(10);
    std::string path = tempPath("trunc");
    ASSERT_TRUE(saveTrace(path, instrs));
    // Chop the last record in half. The error must pinpoint the byte
    // offset where the mangled record *starts* — record 9 of 10, at
    // header + 9 full records — and say it is a truncation, not a
    // hostile header.
    ASSERT_EQ(0, truncate(path.c_str(), sizeOf(path) - 10));
    auto result = loadTrace(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
    EXPECT_EQ(result.error().path(), path);
    EXPECT_EQ(result.error().offset(),
              kHeaderBytes + 9 * kRecordBytes);
    EXPECT_NE(result.error().reason().find("truncated record"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedMidRecordSweepReportsExactOffsets)
{
    // Satellite regression for the typed-error contract: for *every*
    // cut point inside the record payload, the reported offset is the
    // start of the first incomplete record, and cuts on a record
    // boundary are instead diagnosed as a count/size mismatch.
    std::vector<TraceInstr> instrs(4);
    std::string path = tempPath("truncsweep");
    ASSERT_TRUE(saveTrace(path, instrs));
    const long full = sizeOf(path);
    ASSERT_EQ(full,
              static_cast<long>(kHeaderBytes + 4 * kRecordBytes));
    for (long cut = static_cast<long>(kHeaderBytes) + 1; cut < full;
         ++cut) {
        ASSERT_TRUE(saveTrace(path, instrs));
        ASSERT_EQ(0, truncate(path.c_str(), cut));
        auto result = loadTrace(path);
        ASSERT_FALSE(result.ok()) << "cut=" << cut;
        EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
        std::uint64_t payload =
            static_cast<std::uint64_t>(cut) - kHeaderBytes;
        if (payload % kRecordBytes != 0) {
            std::uint64_t expect =
                kHeaderBytes + (payload / kRecordBytes) * kRecordBytes;
            EXPECT_EQ(result.error().offset(), expect)
                << "cut=" << cut;
            EXPECT_NE(result.error().reason().find("truncated record"),
                      std::string::npos)
                << "cut=" << cut;
        } else {
            // Clean record boundary: the payload is self-consistent,
            // so the header count is the lie.
            EXPECT_EQ(result.error().offset(), 8u) << "cut=" << cut;
            EXPECT_NE(
                result.error().reason().find("exceeds file capacity"),
                std::string::npos)
                << "cut=" << cut;
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, HeaderCountVsFileSizeFuzz)
{
    // Fuzz the header's record count against a fixed 6-record payload:
    // undercounting loads the declared prefix, any overcount is a typed
    // error, and no value crashes or silently truncates.
    std::vector<TraceInstr> instrs(6);
    for (std::size_t i = 0; i < instrs.size(); ++i)
        instrs[i].ip = 0x1000 + i;
    std::string path = tempPath("countfuzz");
    Rng rng(0xc0117u);
    for (int iter = 0; iter < 64; ++iter) {
        ASSERT_TRUE(saveTrace(path, instrs));
        std::uint64_t claimed = rng.nextBounded(16);
        if (iter % 4 == 0)
            claimed = (1ull << 62) + rng.nextBounded(1024);
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 8, SEEK_SET);
        ASSERT_EQ(std::fwrite(&claimed, 8, 1, f), 1u);
        std::fclose(f);
        auto result = loadTrace(path);
        if (claimed <= 6) {
            ASSERT_TRUE(result.ok()) << "claimed=" << claimed;
            EXPECT_EQ(result.value().size(), claimed);
            if (claimed > 0) {
                EXPECT_EQ(result.value()[0].ip, 0x1000u);
            }
        } else {
            ASSERT_FALSE(result.ok()) << "claimed=" << claimed;
            EXPECT_EQ(result.error().kind(),
                      verify::ErrorKind::TraceIo);
            EXPECT_EQ(result.error().offset(), 8u);
            EXPECT_NE(
                result.error().reason().find("exceeds file capacity"),
                std::string::npos);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, SaveTraceReportsTypedWriteErrors)
{
    // Satellite: saveTrace now returns verify::Result instead of bool,
    // so an unwritable destination carries path + errno reason.
    std::vector<TraceInstr> instrs(2);
    auto result = saveTrace("/nonexistent-dir/out.trace", instrs);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind(), verify::ErrorKind::TraceIo);
    EXPECT_EQ(result.error().path(), "/nonexistent-dir/out.trace");
    EXPECT_NE(result.error().reason().find("cannot open"),
              std::string::npos);

    // Success reports the exact byte count written.
    std::string path = tempPath("savebytes");
    auto ok = saveTrace(path, instrs);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), kHeaderBytes + 2 * kRecordBytes);
    EXPECT_EQ(static_cast<std::uint64_t>(sizeOf(path)), ok.value());
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRejectedByReplay)
{
    // Zero records is a *valid* file for loadTrace but useless for
    // replay: FileReplayGen must refuse it loudly.
    std::vector<TraceInstr> none;
    std::string path = tempPath("empty");
    ASSERT_TRUE(saveTrace(path, none));
    auto result = loadTrace(path);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().empty());
    try {
        FileReplayGen replay(path);
        FAIL() << "empty trace must not replay";
    } catch (const verify::SimError &e) {
        EXPECT_EQ(e.kind(), verify::ErrorKind::TraceIo);
        EXPECT_NE(e.reason().find("no instructions"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

} // namespace berti

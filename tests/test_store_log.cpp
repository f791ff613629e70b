#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "store/log.hpp"
#include "util/crc32.hpp"

namespace lptsp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lptsp_" + name + ".log";
}

std::vector<std::uint8_t> bytes(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

/// Open and collect every record as a string.
std::vector<std::string> scan(const std::string& path, RecordLog::OpenStats& stats) {
  std::vector<std::string> records;
  std::string error;
  RecordLog::Options options;
  options.path = path;
  auto log = RecordLog::open(
      options,
      [&records](const std::uint8_t* image, std::uint64_t offset, std::size_t size) {
        records.emplace_back(reinterpret_cast<const char*>(image + offset), size);
      },
      stats, error);
  EXPECT_NE(log, nullptr) << error;
  return records;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kFrameSize = 8;
static_assert(RecordLog::kFrameSize == kFrameSize);

const RecordLog::RecordFn ignore_records = [](const std::uint8_t*, std::uint64_t, std::size_t) {};

TEST(RecordLog, AppendThenScanRoundTrips) {
  const std::string path = temp_path("roundtrip");
  std::remove(path.c_str());
  {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(
        options, [](const std::uint8_t*, std::uint64_t, std::size_t) { FAIL(); }, stats, error);
    ASSERT_NE(log, nullptr) << error;
    EXPECT_TRUE(stats.created);
    EXPECT_TRUE(log->append(bytes("alpha")));
    EXPECT_TRUE(log->append(bytes("")));  // empty payloads are legal records
    EXPECT_TRUE(log->append(bytes("gamma-gamma")));
    EXPECT_TRUE(log->sync());
  }
  RecordLog::OpenStats stats;
  const std::vector<std::string> records = scan(path, stats);
  EXPECT_FALSE(stats.created);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.dropped_records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], "gamma-gamma");
  std::remove(path.c_str());
}

TEST(RecordLog, ReopenAppendsAfterExistingRecords) {
  const std::string path = temp_path("reopen");
  std::remove(path.c_str());
  for (int round = 0; round < 3; ++round) {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, stats, error);
    ASSERT_NE(log, nullptr) << error;
    EXPECT_EQ(stats.records, static_cast<std::uint64_t>(round));
    EXPECT_TRUE(log->append(bytes("round-" + std::to_string(round))));
  }
  RecordLog::OpenStats stats;
  const std::vector<std::string> records = scan(path, stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2], "round-2");
  std::remove(path.c_str());
}

TEST(RecordLog, TornTailIsTruncatedAndLogStaysAppendable) {
  const std::string path = temp_path("torn");
  std::remove(path.c_str());
  {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, stats, error);
    ASSERT_NE(log, nullptr);
    log->append(bytes("one"));
    log->append(bytes("two"));
  }
  // Simulate a crash mid-append: 5 bytes of a frame that never completed.
  std::vector<char> file = read_file(path);
  const std::size_t intact = file.size();
  file.insert(file.end(), {'\x09', '\x00', '\x00', '\x00', '\x7f'});
  write_file(path, file);

  RecordLog::OpenStats stats;
  const std::vector<std::string> records = scan(path, stats);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.truncated_bytes, 5u);
  EXPECT_EQ(read_file(path).size(), intact);  // tail physically removed

  // The repaired log accepts appends and they survive another reopen.
  {
    RecordLog::OpenStats reopen_stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, reopen_stats,
                               error);
    ASSERT_NE(log, nullptr);
    EXPECT_TRUE(log->append(bytes("three")));
  }
  RecordLog::OpenStats final_stats;
  const std::vector<std::string> final_records = scan(path, final_stats);
  ASSERT_EQ(final_records.size(), 3u);
  EXPECT_EQ(final_records[2], "three");
  std::remove(path.c_str());
}

TEST(RecordLog, TruncatedMidPayloadDropsOnlyTheTail) {
  const std::string path = temp_path("midpayload");
  std::remove(path.c_str());
  {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, stats, error);
    ASSERT_NE(log, nullptr);
    log->append(bytes("first-record"));
    log->append(bytes("second-record"));
  }
  std::vector<char> file = read_file(path);
  file.resize(file.size() - 4);  // lose the last 4 payload bytes
  write_file(path, file);

  RecordLog::OpenStats stats;
  const std::vector<std::string> records = scan(path, stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "first-record");
  EXPECT_GT(stats.truncated_bytes, 0u);
  std::remove(path.c_str());
}

TEST(RecordLog, BitFlippedRecordIsSkippedButLaterRecordsSurvive) {
  const std::string path = temp_path("bitflip");
  std::remove(path.c_str());
  {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, stats, error);
    ASSERT_NE(log, nullptr);
    log->append(bytes("aaaaaaaa"));
    log->append(bytes("bbbbbbbb"));
    log->append(bytes("cccccccc"));
  }
  // Flip one payload byte of the SECOND record. Layout after the header:
  // [frame|8 bytes payload] x 3.
  std::vector<char> file = read_file(path);
  const std::size_t record_bytes = kFrameSize + 8;
  file[kHeaderSize + record_bytes + kFrameSize + 3] ^= 0x40;
  write_file(path, file);

  RecordLog::OpenStats stats;
  const std::vector<std::string> records = scan(path, stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "aaaaaaaa");
  EXPECT_EQ(records[1], "cccccccc");  // only the damaged record is lost
  EXPECT_EQ(stats.dropped_records, 1u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  std::remove(path.c_str());
}

TEST(RecordLog, ImplausibleLengthFieldTruncatesTheRest) {
  const std::string path = temp_path("badlen");
  std::remove(path.c_str());
  {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, stats, error);
    ASSERT_NE(log, nullptr);
    log->append(bytes("keepme"));
    log->append(bytes("corrupt-my-length"));
    log->append(bytes("unreachable"));
  }
  std::vector<char> file = read_file(path);
  const std::size_t second_frame = kHeaderSize + kFrameSize + 6;
  file[second_frame + 3] = '\x7f';  // length becomes ~2GB: cannot resync past it
  write_file(path, file);

  RecordLog::OpenStats stats;
  const std::vector<std::string> records = scan(path, stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "keepme");
  EXPECT_GT(stats.truncated_bytes, 0u);
  std::remove(path.c_str());
}

TEST(RecordLog, ForeignFileFailsOpenInsteadOfBeingTruncated) {
  const std::string path = temp_path("foreign");
  write_file(path, {'n', 'o', 't', ' ', 'a', ' ', 'l', 'o', 'g', ' ', 'f', 'i', 'l', 'e', '!',
                    '!', '!', '!'});
  RecordLog::OpenStats stats;
  std::string error;
  RecordLog::Options options;
  options.path = path;
  auto log = RecordLog::open(options, ignore_records, stats, error);
  EXPECT_EQ(log, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(read_file(path).size(), 18u);  // the foreign file was not touched
  std::remove(path.c_str());
}

TEST(RecordLog, OversizedAppendIsRefusedWithoutPoisoningTheLog) {
  const std::string path = temp_path("oversize");
  std::remove(path.c_str());
  RecordLog::OpenStats stats;
  std::string error;
  RecordLog::Options options;
  options.path = path;
  options.max_record_bytes = 16;
  auto log = RecordLog::open(options, ignore_records, stats, error);
  ASSERT_NE(log, nullptr);
  EXPECT_TRUE(log->append(bytes("fits")));
  // The oversized payload is refused, but nothing was written — the log
  // stays healthy and later records keep persisting (one huge record must
  // not silently kill durability for the rest of the process).
  EXPECT_FALSE(log->append(bytes("this payload is larger than sixteen bytes")));
  EXPECT_FALSE(log->failed());
  EXPECT_TRUE(log->append(bytes("tiny")));
  RecordLog::OpenStats reopen_stats;
  log.reset();
  const std::vector<std::string> records = scan(path, reopen_stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "fits");
  EXPECT_EQ(records[1], "tiny");
  std::remove(path.c_str());
}

/// The slicing-by-8 checksum is the standard CRC-32: the check value,
/// every length and alignment against a byte-at-a-time reference, and
/// chaining through `seed`.
TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32::of(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  const auto reference = [](const std::uint8_t* data, std::size_t size) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      c ^= data[i];
      for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<std::uint8_t> data(80);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t size = 0; start + size <= data.size(); ++size) {
      EXPECT_EQ(crc32::of(data.data() + start, size), reference(data.data() + start, size))
          << start << "+" << size;
    }
  }
  const std::uint32_t head = crc32::of(data.data(), 13);
  EXPECT_EQ(crc32::of(data.data() + 13, 50, head), crc32::of(data.data(), 63));
}

/// The offsets open() reports, and the ones append_framed() lands at,
/// read the record back through its frame check; a byte flipped on disk
/// after open fails that check instead of being returned.
TEST(RecordLog, OffsetsReadBackAndReadRechecksTheFrame) {
  const std::string path = temp_path("readback");
  std::remove(path.c_str());
  {
    RecordLog::OpenStats stats;
    std::string error;
    RecordLog::Options options;
    options.path = path;
    auto log = RecordLog::open(options, ignore_records, stats, error);
    ASSERT_NE(log, nullptr) << error;
    EXPECT_TRUE(log->append(bytes("first")));
    EXPECT_TRUE(log->append(bytes("second-record")));
  }
  RecordLog::OpenStats stats;
  std::string error;
  RecordLog::Options options;
  options.path = path;
  std::vector<std::pair<std::uint64_t, std::size_t>> slots;
  auto log = RecordLog::open(
      options,
      [&slots](const std::uint8_t*, std::uint64_t offset, std::size_t size) {
        slots.emplace_back(offset, size);
      },
      stats, error);
  ASSERT_NE(log, nullptr) << error;
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].first, kHeaderSize + kFrameSize);

  // append_framed: the caller's buffer carries the frame room, and the
  // payload lands at bytes() + kFrameSize.
  std::vector<std::uint8_t> framed(kFrameSize, 0);
  for (const char c : std::string("third")) framed.push_back(static_cast<std::uint8_t>(c));
  const std::uint64_t third_offset = log->bytes() + kFrameSize;
  ASSERT_TRUE(log->append_framed(framed));
  slots.emplace_back(third_offset, 5);

  const std::vector<std::string> expected = {"first", "second-record", "third"};
  std::vector<std::uint8_t> record;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(log->read(slots[i].first, slots[i].second, record)) << i;
    EXPECT_EQ(std::string(record.begin() + kFrameSize, record.end()), expected[i]);
  }
  // A wrong length is a failed frame check, not a short read.
  EXPECT_FALSE(log->read(slots[1].first, slots[1].second - 1, record));
  char tail[3] = {};
  ASSERT_TRUE(log->read_raw(slots[1].first + 10, reinterpret_cast<std::uint8_t*>(tail), 3));
  EXPECT_EQ(std::string(tail, 3), "ord");

  std::vector<char> file = read_file(path);
  file[slots[1].first + 2] ^= 0x20;  // bit rot after open
  write_file(path, file);
  EXPECT_FALSE(log->read(slots[1].first, slots[1].second, record));
  EXPECT_TRUE(log->read(slots[0].first, slots[0].second, record));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lptsp

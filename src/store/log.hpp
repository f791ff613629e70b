#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace lptsp {

/// Append-only, crash-safe record log — the durability primitive under the
/// KV layer (store/kv.hpp).
///
/// File layout (all integers little-endian, via util/endian.hpp):
///
///   header:  "LPTSPLOG" (8)  | u32 version (=1) | u32 crc32(magic+version)
///   record:  u32 payload_len | u32 crc32(payload) | payload bytes
///
/// Crash-safety contract, enforced by open():
///  - a torn tail (partial frame or payload at EOF, e.g. the process died
///    mid-write) is truncated away, never reported as data and never fatal;
///  - a framed record whose CRC does not match (bit rot) is skipped and
///    counted, and scanning resumes at the next frame — only that record
///    is lost;
///  - a frame whose declared length is implausible (exceeds the remaining
///    file or max_record_bytes) cannot be resynced past, so the rest of the
///    file is treated as a damaged tail and truncated;
///  - a corrupt header is an open error (the file is not a log), reported
///    via the error string — opening never throws on bad file contents.
class RecordLog {
 public:
  struct Options {
    std::string path;
    /// Upper bound on a single payload; a frame declaring more is treated
    /// as corruption rather than an allocation request.
    std::size_t max_record_bytes = 64u << 20;
  };

  struct OpenStats {
    std::uint64_t records = 0;           ///< valid records delivered to the callback
    std::uint64_t dropped_records = 0;   ///< framed but CRC-mismatched, skipped
    std::uint64_t truncated_bytes = 0;   ///< damaged tail removed from the file
    bool created = false;                ///< the file was absent or empty
  };

  /// Bytes of framing (payload_len + payload_crc) in front of every payload.
  static constexpr std::size_t kFrameSize = 8;

  /// One valid record found by open()'s scan. `image` is the scan's read
  /// image of the whole file and stays valid until open() returns; this
  /// record's payload is the `size` bytes at `image + offset`, and `offset`
  /// is also its position in the file (what read() takes later).
  using RecordFn =
      std::function<void(const std::uint8_t* image, std::uint64_t offset, std::size_t size)>;

  /// Open `options.path` (creating it with a fresh header when absent or
  /// empty), replay every valid record through `on_record` in append order,
  /// repair the tail per the contract above, and leave the file positioned
  /// for append(). Returns nullptr with `error` set on IO failure or a
  /// corrupt header.
  static std::unique_ptr<RecordLog> open(const Options& options, const RecordFn& on_record,
                                         OpenStats& stats, std::string& error);

  /// Create or truncate `options.path` as an empty log (compaction rewrites
  /// go through this, then rename over the live path).
  static std::unique_ptr<RecordLog> create(const Options& options, std::string& error);

  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Append one record (frame + payload in a single write). Returns false
  /// on IO error or oversized payload; the log is then poisoned (every
  /// later append fails) so a half-written frame is never followed by more
  /// data it would corrupt the scan of.
  bool append(const std::uint8_t* payload, std::size_t size);
  bool append(const std::vector<std::uint8_t>& payload) {
    return append(payload.data(), payload.size());
  }

  /// append() without the copy into a frame buffer: `record` holds
  /// kFrameSize bytes of room for the frame followed by the payload, and
  /// this fills the frame in place and writes the buffer as it is. The
  /// payload lands at offset bytes() + kFrameSize (bytes() read before
  /// the call).
  bool append_framed(std::vector<std::uint8_t>& record);

  /// Read back the record whose payload starts at file offset `offset`
  /// and is `size` bytes long, re-checking its frame: false on IO error,
  /// a frame length other than `size` or a CRC mismatch. On success
  /// `record` holds the frame followed by the payload — exactly the
  /// buffer append_framed() takes, so a compaction can copy it verbatim.
  bool read(std::uint64_t offset, std::size_t size, std::vector<std::uint8_t>& record) const;

  /// pread `size` bytes at file offset `offset` into `out` with no
  /// integrity check (partial reads of a record located by read()'s
  /// offsets); false on IO error or a short read.
  bool read_raw(std::uint64_t offset, std::uint8_t* out, std::size_t size) const;

  /// fsync the file (and nothing else); false on IO error.
  bool sync();

  /// Current file size in bytes (header + records appended so far).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return size_; }

  [[nodiscard]] const std::string& path() const noexcept { return options_.path; }

  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  RecordLog(Options options, int fd, std::uint64_t size)
      : options_(std::move(options)), fd_(fd), size_(size) {}

  Options options_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  bool failed_ = false;
};

/// fsync the directory containing `path`, making a just-renamed file
/// durable against the directory entry itself being lost. Best effort:
/// returns false on failure but callers treat that as advisory.
bool sync_parent_directory(const std::string& path);

}  // namespace lptsp

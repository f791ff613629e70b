#include "store/log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32.hpp"
#include "util/endian.hpp"
#include "util/fault.hpp"

namespace lptsp {

namespace {

constexpr char kMagic[8] = {'L', 'P', 'T', 'S', 'P', 'L', 'O', 'G'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 16;  // magic(8) + version(4) + crc(4)
constexpr std::size_t kFrameSize = RecordLog::kFrameSize;  // payload_len(4) + payload_crc(4)

std::vector<std::uint8_t> encode_header() {
  std::vector<std::uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  endian::put_u32(header, kVersion);
  endian::put_u32(header, crc32::of(header.data(), header.size()));
  return header;
}

std::string errno_text(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

/// write(2) the whole buffer, retrying on short writes and EINTR.
bool write_fully(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

/// pread exactly `size` bytes at `offset`, retrying on short reads and
/// EINTR; false on IO error or end of file.
bool pread_fully(int fd, std::uint8_t* out, std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t got = ::pread(fd, out, size, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    size -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

/// Read the whole file from offset 0 into `out`; false on IO error.
bool read_all(int fd, std::vector<std::uint8_t>& out) {
  out.clear();
  // One allocation of the file's size, not a doubling chain that peaks
  // at twice it.
  struct stat info {};
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    out.reserve(static_cast<std::size_t>(info.st_size));
  }
  std::uint8_t buffer[1u << 16];
  std::uint64_t offset = 0;
  while (true) {
    const ssize_t got = ::pread(fd, buffer, sizeof(buffer), static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return true;
    out.insert(out.end(), buffer, buffer + got);
    offset += static_cast<std::uint64_t>(got);
  }
}

}  // namespace

std::unique_ptr<RecordLog> RecordLog::open(const Options& options, const RecordFn& on_record,
                                           OpenStats& stats, std::string& error) {
  stats = OpenStats{};
  const int fd = ::open(options.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    error = errno_text("cannot open", options.path);
    return nullptr;
  }

  std::vector<std::uint8_t> file;
  if (!read_all(fd, file)) {
    error = errno_text("cannot read", options.path);
    ::close(fd);
    return nullptr;
  }

  if (file.empty()) {
    const std::vector<std::uint8_t> header = encode_header();
    if (!write_fully(fd, header.data(), header.size())) {
      error = errno_text("cannot write header to", options.path);
      ::close(fd);
      return nullptr;
    }
    stats.created = true;
    return std::unique_ptr<RecordLog>(new RecordLog(options, fd, kHeaderSize));
  }

  // Non-empty file: the header must be intact — a log whose first bytes are
  // garbage is not "a log with a damaged tail", it is some other file, and
  // silently truncating it to empty would destroy data we do not own.
  const std::vector<std::uint8_t> expected_header = encode_header();
  if (file.size() < kHeaderSize ||
      !std::equal(expected_header.begin(), expected_header.end(), file.begin())) {
    error = "not a lptsp store log (bad header): " + options.path;
    ::close(fd);
    return nullptr;
  }

  // Sequential scan. `good_end` chases the end of the last cleanly framed
  // record so a damaged tail can be cut exactly where the damage starts.
  std::size_t pos = kHeaderSize;
  std::size_t good_end = kHeaderSize;
  bool truncate_tail = false;
  while (pos < file.size()) {
    if (file.size() - pos < kFrameSize) {
      truncate_tail = true;  // torn frame header
      break;
    }
    const std::uint32_t payload_len = endian::get_u32(file.data() + pos);
    const std::uint32_t expected_crc = endian::get_u32(file.data() + pos + 4);
    if (payload_len > options.max_record_bytes ||
        payload_len > file.size() - pos - kFrameSize) {
      // Implausible or overrunning length: either a torn append or a
      // corrupted length field. There is no trustworthy way to find the
      // next frame boundary, so everything from here on is a damaged tail.
      truncate_tail = true;
      break;
    }
    const std::uint8_t* payload = file.data() + pos + kFrameSize;
    if (crc32::of(payload, payload_len) != expected_crc) {
      // Payload bit rot inside an intact frame: the next frame boundary is
      // still known, so only this record is lost.
      ++stats.dropped_records;
    } else {
      on_record(file.data(), pos + kFrameSize, payload_len);
      ++stats.records;
    }
    pos += kFrameSize + payload_len;
    good_end = pos;
  }

  std::uint64_t size = file.size();
  if (truncate_tail && good_end < file.size()) {
    stats.truncated_bytes = file.size() - good_end;
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0) {
      error = errno_text("cannot truncate damaged tail of", options.path);
      ::close(fd);
      return nullptr;
    }
    size = good_end;
  }
  if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    error = errno_text("cannot seek", options.path);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<RecordLog>(new RecordLog(options, fd, size));
}

std::unique_ptr<RecordLog> RecordLog::create(const Options& options, std::string& error) {
  const int fd =
      ::open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    error = errno_text("cannot create", options.path);
    return nullptr;
  }
  const std::vector<std::uint8_t> header = encode_header();
  if (!write_fully(fd, header.data(), header.size())) {
    error = errno_text("cannot write header to", options.path);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<RecordLog>(new RecordLog(options, fd, kHeaderSize));
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool RecordLog::append(const std::uint8_t* payload, std::size_t size) {
  std::vector<std::uint8_t> record;
  record.reserve(kFrameSize + size);
  record.resize(kFrameSize);
  record.insert(record.end(), payload, payload + size);
  return append_framed(record);
}

bool RecordLog::append_framed(std::vector<std::uint8_t>& record) {
  if (failed_ || record.size() < kFrameSize) return false;
  const std::size_t size = record.size() - kFrameSize;
  // An oversized payload is refused, but nothing was written, so the log
  // is still intact — later (fitting) appends must keep working. Only a
  // failed WRITE poisons the log: a half-written frame would corrupt the
  // scan of anything appended after it.
  if (size > options_.max_record_bytes) return false;
  // Injected append failure: models a failed write(2). Nothing reaches
  // the disk, but the caller-visible contract is the real one — the
  // append failed and the log is poisoned (a genuine failure could have
  // left a half-written frame).
  if (fault::should_fail(FaultSite::StoreAppend)) {
    failed_ = true;
    return false;
  }
  // One buffer, one write: the frame and payload land contiguously, so a
  // crash leaves at worst a torn tail (which open() repairs), never an
  // intact frame pointing at someone else's bytes.
  endian::set_u32(record.data(), static_cast<std::uint32_t>(size));
  endian::set_u32(record.data() + 4, crc32::of(record.data() + kFrameSize, size));
  if (!write_fully(fd_, record.data(), record.size())) {
    failed_ = true;
    return false;
  }
  size_ += record.size();
  return true;
}

bool RecordLog::read(std::uint64_t offset, std::size_t size,
                     std::vector<std::uint8_t>& record) const {
  if (offset < kHeaderSize + kFrameSize || size > options_.max_record_bytes) return false;
  record.resize(kFrameSize + size);
  if (!pread_fully(fd_, record.data(), record.size(), offset - kFrameSize)) return false;
  return endian::get_u32(record.data()) == size &&
         endian::get_u32(record.data() + 4) == crc32::of(record.data() + kFrameSize, size);
}

bool RecordLog::read_raw(std::uint64_t offset, std::uint8_t* out, std::size_t size) const {
  return pread_fully(fd_, out, size, offset);
}

bool RecordLog::sync() {
  if (failed_) return false;
  // An injected fsync failure does not poison the log: the data is
  // intact, only the durability point was refused — same as a real
  // transient fsync error.
  if (fault::should_fail(FaultSite::StoreFsync)) return false;
  return ::fsync(fd_) == 0;
}

bool sync_parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace lptsp

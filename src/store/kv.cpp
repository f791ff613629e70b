#include "store/kv.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "util/endian.hpp"
#include "util/fault.hpp"

namespace lptsp {

namespace {

constexpr std::uint8_t kOpPut = 1;
constexpr std::uint8_t kOpErase = 2;
constexpr std::size_t kFrameSize = RecordLog::kFrameSize;
/// op(1) + namespace(1) precede the key's length prefix in every payload.
constexpr std::size_t kKeyOffset = 2;

std::uint64_t key_hash(std::string_view key) { return std::hash<std::string_view>{}(key); }

bool read_bytes(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                std::string_view& out) {
  std::uint32_t len = 0;
  if (!endian::try_get_u32(data, size, offset, len) || len > size - offset) return false;
  out = std::string_view(reinterpret_cast<const char*>(data + offset), len);
  offset += len;
  return true;
}

/// One decoded KV payload; the views point into the decoded bytes.
struct Payload {
  std::uint8_t op = 0;
  std::uint8_t ns = 0;
  std::string_view key;
  std::string_view value;  ///< empty for an erase
};

/// Decode a put or erase payload, requiring a known namespace and exact
/// lengths. False on anything else (a newer format, or damage the CRC
/// could not see).
bool decode_payload(const std::uint8_t* data, std::size_t size, Payload& out) {
  if (size < kKeyOffset) return false;
  out.op = data[0];
  out.ns = data[1];
  std::size_t offset = kKeyOffset;
  if (out.ns >= KvStore::kNamespaces || !read_bytes(data, size, offset, out.key)) return false;
  if (out.op == kOpPut) return read_bytes(data, size, offset, out.value) && offset == size;
  out.value = {};
  return out.op == kOpErase && offset == size;
}

/// A record buffer for RecordLog::append_framed: frame room, then the
/// payload head up to and including the key.
std::vector<std::uint8_t> begin_record(std::uint8_t op, std::uint8_t ns, std::string_view key) {
  std::vector<std::uint8_t> record;
  record.reserve(kFrameSize + kKeyOffset + 8 + key.size());
  record.resize(kFrameSize);
  record.push_back(op);
  record.push_back(ns);
  endian::put_u32(record, static_cast<std::uint32_t>(key.size()));
  record.insert(record.end(), key.begin(), key.end());
  return record;
}

/// A whole put record, the value written by `encode` straight into place.
/// `value_begin` receives the value's position in the buffer.
std::vector<std::uint8_t> encode_put(std::uint8_t ns, std::string_view key,
                                     const KvStore::ValueEncoder& encode,
                                     std::size_t& value_begin) {
  std::vector<std::uint8_t> record = begin_record(kOpPut, ns, key);
  const std::size_t length_slot = record.size();
  endian::put_u32(record, 0);
  value_begin = record.size();
  encode(record);
  endian::set_u32(record.data() + length_slot,
                  static_cast<std::uint32_t>(record.size() - value_begin));
  return record;
}

KvStore::ValueEncoder copy_of(std::string_view value) {
  return [value](std::vector<std::uint8_t>& out) {
    out.insert(out.end(), value.begin(), value.end());
  };
}

}  // namespace

std::unique_ptr<KvStore> KvStore::open(const Options& options, std::string& error) {
  // A leftover sibling from a compaction that crashed before its rename is
  // dead weight (the main log is still the valid one); reclaim it.
  std::remove((options.path + ".compact").c_str());
  std::unique_ptr<KvStore> store(new KvStore(options));
  RecordLog::Options log_options;
  log_options.path = options.path;
  log_options.max_record_bytes = options.max_record_bytes;
  RecordLog::OpenStats log_stats;
  store->log_ = RecordLog::open(
      log_options,
      [&store](const std::uint8_t* image, std::uint64_t offset, std::size_t size) {
        // One KV operation per record. Unknown ops/namespaces (a newer
        // format writing into an old reader) and malformed payloads are
        // data loss already contained to one record: count and move on.
        Payload record;
        if (!decode_payload(image + offset, size, record)) {
          ++store->dropped_records_;
          return;
        }
        // Last writer wins: retire the slot of an earlier record with the
        // same key. Its bytes are still in the scan image, and they decoded
        // cleanly when it was indexed.
        Index& index = store->index_[record.ns];
        const std::uint64_t hash = key_hash(record.key);
        const auto [begin, end] = index.equal_range(hash);
        for (auto it = begin; it != end; ++it) {
          Payload earlier;
          decode_payload(image + it->second.offset, it->second.size, earlier);
          if (earlier.key == record.key) {
            index.erase(it);
            break;
          }
        }
        if (record.op == kOpPut) {
          index.emplace(hash, Slot{offset, static_cast<std::uint32_t>(size)});
        }
        ++store->total_records_;
      },
      log_stats, error);
  if (store->log_ == nullptr) return nullptr;
  store->dropped_records_ += log_stats.dropped_records;
  store->truncated_bytes_ = log_stats.truncated_bytes;
  store->created_ = log_stats.created;
  return store;
}

KvStore::Index::const_iterator KvStore::find_locked(std::uint8_t ns, std::string_view key,
                                                    std::uint64_t hash) const {
  const auto [begin, end] = index_[ns].equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    // Only the key's length prefix and bytes: no need to read the value
    // to tell two keys that share a hash apart.
    read_buffer_.resize(4 + key.size());
    if (it->second.size >= kKeyOffset + read_buffer_.size() &&
        log_->read_raw(it->second.offset + kKeyOffset, read_buffer_.data(), read_buffer_.size()) &&
        endian::get_u32(read_buffer_.data()) == key.size() &&
        std::memcmp(read_buffer_.data() + 4, key.data(), key.size()) == 0) {
      return it;
    }
  }
  return index_[ns].end();
}

bool KvStore::read_record_locked(std::uint8_t ns, const Slot& slot, std::string_view& key,
                                 std::string_view& value) const {
  Payload record;
  if (!log_->read(slot.offset, slot.size, read_buffer_) ||
      !decode_payload(read_buffer_.data() + kFrameSize, slot.size, record) ||
      record.op != kOpPut || record.ns != ns) {
    return false;
  }
  key = record.key;
  value = record.value;
  return true;
}

bool KvStore::erase_pending_locked(std::uint8_t ns, const std::string& key) {
  const auto it = pending_[ns].find(key);
  if (it == pending_[ns].end()) return false;
  pending_bytes_ -= it->first.size() + it->second.size();
  pending_[ns].erase(it);
  return true;
}

bool KvStore::commit_locked() {
  ++total_records_;
  if (options_.sync_every_put && !log_->sync()) return false;
  maybe_compact_locked();
  return true;
}

bool KvStore::put(std::uint8_t ns, const std::string& key, const std::string& value) {
  return put_encoded(ns, key, copy_of(value));
}

bool KvStore::put_encoded(std::uint8_t ns, const std::string& key, const ValueEncoder& encode) {
  if (ns >= kNamespaces) return false;
  std::size_t value_begin = 0;
  std::vector<std::uint8_t> record = encode_put(ns, key, encode, value_begin);
  // Refused before the index is touched: a record the log cannot take
  // must not linger where a compaction would try to write it.
  const std::size_t size = record.size() - kFrameSize;
  if (size > options_.max_record_bytes || size > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  const std::lock_guard lock(mutex_);
  const std::uint64_t hash = key_hash(key);
  const auto existing = find_locked(ns, key, hash);
  if (existing != index_[ns].end()) index_[ns].erase(existing);
  erase_pending_locked(ns, key);
  const std::uint64_t offset = log_->bytes() + kFrameSize;
  if (!log_->append_framed(record)) {
    // Keep the value for the next compaction (the degraded-mode heal).
    std::string& value = pending_[ns][key];
    value.assign(record.begin() + static_cast<std::ptrdiff_t>(value_begin), record.end());
    pending_bytes_ += key.size() + value.size();
    return false;
  }
  index_[ns].emplace(hash, Slot{offset, static_cast<std::uint32_t>(size)});
  return commit_locked();
}

bool KvStore::erase(std::uint8_t ns, const std::string& key) {
  if (ns >= kNamespaces) return false;
  std::vector<std::uint8_t> record = begin_record(kOpErase, ns, key);
  const std::lock_guard lock(mutex_);
  bool existed = erase_pending_locked(ns, key);
  const auto it = find_locked(ns, key, key_hash(key));
  if (it != index_[ns].end()) {
    index_[ns].erase(it);
    existed = true;
  }
  if (!existed) return true;  // nothing to tombstone
  if (!log_->append_framed(record)) return false;
  return commit_locked();
}

std::optional<std::string> KvStore::get(std::uint8_t ns, const std::string& key) const {
  if (ns >= kNamespaces) return std::nullopt;
  const std::lock_guard lock(mutex_);
  if (const auto it = pending_[ns].find(key); it != pending_[ns].end()) return it->second;
  const auto [begin, end] = index_[ns].equal_range(key_hash(key));
  for (auto it = begin; it != end; ++it) {
    std::string_view stored_key;
    std::string_view value;
    if (read_record_locked(ns, it->second, stored_key, value) && stored_key == key) {
      return std::string(value);
    }
  }
  return std::nullopt;
}

bool KvStore::read_value_tail(std::uint8_t ns, const std::string& key, std::uint8_t* out,
                              std::size_t size) const {
  if (ns >= kNamespaces) return false;
  const std::lock_guard lock(mutex_);
  if (const auto it = pending_[ns].find(key); it != pending_[ns].end()) {
    if (it->second.size() < size) return false;
    std::memcpy(out, it->second.data() + it->second.size() - size, size);
    return true;
  }
  const auto it = find_locked(ns, key, key_hash(key));
  if (it == index_[ns].end()) return false;
  // The slot decoded as a put of exactly this key when it was indexed, so
  // everything after key_len | key | value_len is the value.
  const Slot& slot = it->second;
  const std::size_t value_size = slot.size - (kKeyOffset + 4 + key.size() + 4);
  return value_size >= size && log_->read_raw(slot.offset + slot.size - size, out, size);
}

void KvStore::for_each(std::uint8_t ns,
                       const std::function<void(std::string_view, std::string_view)>& fn) const {
  if (ns >= kNamespaces) return;
  const std::lock_guard lock(mutex_);
  for (const auto& [hash, slot] : index_[ns]) {
    std::string_view key;
    std::string_view value;
    if (read_record_locked(ns, slot, key, value)) fn(key, value);
  }
  for (const auto& [key, value] : pending_[ns]) fn(key, value);
}

std::size_t KvStore::size(std::uint8_t ns) const {
  if (ns >= kNamespaces) return 0;
  const std::lock_guard lock(mutex_);
  return index_[ns].size() + pending_[ns].size();
}

std::uint64_t KvStore::live_locked() const {
  std::uint64_t live = 0;
  for (std::uint8_t ns = 0; ns < kNamespaces; ++ns) {
    live += index_[ns].size() + pending_[ns].size();
  }
  return live;
}

KvStore::Stats KvStore::stats() const {
  const std::lock_guard lock(mutex_);
  Stats stats;
  stats.live_records = live_locked();
  stats.total_records = total_records_;
  stats.dropped_records = dropped_records_;
  stats.truncated_bytes = truncated_bytes_;
  stats.compactions = compactions_;
  stats.file_bytes = log_->bytes();
  stats.resident_value_bytes = pending_bytes_;
  stats.created = created_;
  return stats;
}

bool KvStore::sync() {
  const std::lock_guard lock(mutex_);
  return log_->sync();
}

void KvStore::maybe_compact_locked() {
  if (total_records_ < options_.compact_min_records) return;
  const std::uint64_t live = live_locked();
  const double garbage =
      1.0 - static_cast<double>(live) / static_cast<double>(total_records_);
  if (garbage > options_.compact_garbage_ratio) compact_locked();
}

bool KvStore::compact() {
  const std::lock_guard lock(mutex_);
  return compact_locked();
}

bool KvStore::compact_locked() {
  // Rewrite-and-rename: write the live set to a sibling file, fsync it,
  // then atomically rename over the log. The fresh RecordLog's fd follows
  // the inode across the rename, so appends continue seamlessly. A crash
  // before the rename leaves the old log; after, the new one — both valid.
  RecordLog::Options log_options;
  log_options.path = options_.path + ".compact";
  log_options.max_record_bytes = options_.max_record_bytes;
  std::string error;
  std::unique_ptr<RecordLog> fresh = RecordLog::create(log_options, error);
  if (fresh == nullptr) return false;
  // Any failure before the rename must not leave a full-size orphan
  // sitting next to the log (painful exactly when the disk is full).
  const auto abandon = [&fresh, &log_options] {
    fresh.reset();  // close the fd before unlinking
    std::remove(log_options.path.c_str());
    return false;
  };
  Index fresh_index[kNamespaces];
  std::uint64_t unreadable = 0;
  for (std::uint8_t ns = 0; ns < kNamespaces; ++ns) {
    for (const auto& [hash, slot] : index_[ns]) {
      // Each live record is copied verbatim, frame included, but only once
      // its frame re-checks: bit rot since open() ends here instead of
      // being carried into the new log.
      if (!log_->read(slot.offset, slot.size, read_buffer_)) {
        ++unreadable;
        continue;
      }
      const std::uint64_t offset = fresh->bytes() + kFrameSize;
      if (!fresh->append_framed(read_buffer_)) return abandon();
      fresh_index[ns].emplace(hash, Slot{offset, slot.size});
    }
    for (const auto& [key, value] : pending_[ns]) {
      std::size_t value_begin = 0;
      std::vector<std::uint8_t> record = encode_put(ns, key, copy_of(value), value_begin);
      const std::uint64_t offset = fresh->bytes() + kFrameSize;
      if (!fresh->append_framed(record)) return abandon();
      fresh_index[ns].emplace(key_hash(key),
                              Slot{offset, static_cast<std::uint32_t>(record.size() - kFrameSize)});
    }
  }
  if (!fresh->sync()) return abandon();
  // Injected crash in the rename window: the fully written sibling stays
  // on disk (deliberately NOT abandon() — a killed process cleans nothing
  // up) and the old log remains live. open() reclaims the orphan; the
  // compaction-crash-window tests assert reopen serves the pre-compaction
  // state with no lost records.
  if (fault::should_fail(FaultSite::StoreCompactRename)) {
    fresh.reset();
    return false;
  }
  if (std::rename(log_options.path.c_str(), options_.path.c_str()) != 0) {
    return abandon();
  }
  sync_parent_directory(options_.path);
  log_ = std::move(fresh);
  for (std::uint8_t ns = 0; ns < kNamespaces; ++ns) {
    index_[ns] = std::move(fresh_index[ns]);
    pending_[ns].clear();
  }
  pending_bytes_ = 0;
  dropped_records_ += unreadable;
  total_records_ = live_locked();
  ++compactions_;
  return true;
}

}  // namespace lptsp

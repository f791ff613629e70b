#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "store/log.hpp"

namespace lptsp {

/// Typed key-value layer over the append-only RecordLog: last-writer-wins
/// maps in a handful of small integer namespaces (the service uses one for
/// solve results and one for the engine tuner's scores).
///
/// Record payload (inside the log's CRC framing):
///
///   put:    u8 op (=1) | u8 namespace | u32 key_len | key | u32 val_len | value
///   erase:  u8 op (=2) | u8 namespace | u32 key_len | key
///
/// The in-memory index holds no keys and no values: per namespace it maps
/// a 64-bit hash of each live key to the {offset, length} of its newest
/// put record in the log, so memory grows by a few dozen bytes per record,
/// not by the record. A lookup pread()s the record behind a hash hit,
/// re-checks its frame CRC and compares its key (distinct keys that share
/// a hash simply sit side by side under it). The index is rebuilt by the
/// single sequential scan RecordLog::open performs; malformed or
/// unknown-namespace payloads are counted and skipped, never fatal.
///
/// The one exception is the pending set: a put whose append failed keeps
/// its key and value in memory, so the next successful compaction (the
/// backend's degraded-mode heal) can still write it. A successful
/// compaction empties the set; Stats::resident_value_bytes measures it.
///
/// Overwrites and erases leave dead records behind; when the dead
/// fraction exceeds `compact_garbage_ratio` the store compacts itself
/// in-line (no background thread) by copying each live record, re-checked,
/// to `<path>.compact` and renaming it over the log — rename(2) is atomic,
/// so a crash at any point leaves either the old or the new file, both
/// valid. A record that fails its read-back check (bit rot after open) is
/// never returned and is dropped, and counted, by the next compaction.
///
/// Thread safety: every public method locks one internal mutex, reads
/// included (they share one read-back buffer); disk appends are small and
/// the store sits behind caches, so a single lock is not a throughput
/// concern. Single-process use only (no file locking).
class KvStore {
 public:
  static constexpr std::uint8_t kNamespaces = 4;

  struct Options {
    std::string path;
    /// fsync after every put/erase. Off by default: the service's cached
    /// results are re-derivable, so the durability window of the OS page
    /// cache is an acceptable trade for not paying an fsync per solve.
    bool sync_every_put = false;
    /// Compact when dead_records / total_records exceeds this...
    double compact_garbage_ratio = 0.5;
    /// ...but never before this many total records (tiny stores churn).
    std::uint64_t compact_min_records = 256;
    std::size_t max_record_bytes = 64u << 20;
  };

  struct Stats {
    std::uint64_t live_records = 0;      ///< live keys (indexed + pending)
    std::uint64_t total_records = 0;     ///< log records incl. dead ones
    std::uint64_t dropped_records = 0;   ///< CRC/decode failures on open
    std::uint64_t truncated_bytes = 0;   ///< damaged tail removed on open
    std::uint64_t compactions = 0;
    std::uint64_t file_bytes = 0;
    /// Key + value bytes held in memory: the pending set only, so 0
    /// whenever every put since the last compaction reached the log.
    std::uint64_t resident_value_bytes = 0;
    bool created = false;                ///< the store file was new
  };

  /// Open or create the store at options.path and rebuild the index.
  /// Returns nullptr with `error` set on IO failure or corrupt header.
  static std::unique_ptr<KvStore> open(const Options& options, std::string& error);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Appends a value's bytes to the record buffer the log writes.
  using ValueEncoder = std::function<void(std::vector<std::uint8_t>& out)>;

  /// Insert or overwrite. False when the record exceeds max_record_bytes
  /// (refused before anything changes: the store is as if the put never
  /// happened) or on IO error (the value joins the pending set; the store
  /// keeps serving reads but further appends fail until a compaction
  /// succeeds — callers treat persistence as best-effort).
  bool put(std::uint8_t ns, const std::string& key, const std::string& value);
  /// put() with the value encoded straight into the record buffer that
  /// the log frames and writes — no intermediate copy of the value.
  bool put_encoded(std::uint8_t ns, const std::string& key, const ValueEncoder& encode);
  bool erase(std::uint8_t ns, const std::string& key);

  [[nodiscard]] std::optional<std::string> get(std::uint8_t ns, const std::string& key) const;

  /// Copy the last `size` bytes of `key`'s value into `out`, reading only
  /// the key and those bytes from the log (no CRC pass over the record).
  /// False when the key is absent or its value is shorter than `size`.
  bool read_value_tail(std::uint8_t ns, const std::string& key, std::uint8_t* out,
                       std::size_t size) const;

  /// Visit every live (key, value) in `ns`, each read back from the log and
  /// re-checked. The views are valid only during the call, and the
  /// callback runs under the store lock: do not call back into this store
  /// from inside it.
  void for_each(std::uint8_t ns,
                const std::function<void(std::string_view key, std::string_view value)>& fn)
      const;

  [[nodiscard]] std::size_t size(std::uint8_t ns) const;
  [[nodiscard]] Stats stats() const;

  /// fsync the log now (for callers that batch their durability points).
  bool sync();

  /// Force a compaction regardless of the garbage ratio (tests, shutdown).
  bool compact();

 private:
  /// Where a live record's payload sits in the log.
  struct Slot {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
  };
  /// The key hash is already well mixed; bucket on it directly.
  struct HashIdentity {
    std::size_t operator()(std::uint64_t hash) const noexcept {
      return static_cast<std::size_t>(hash);
    }
  };
  using Index = std::unordered_multimap<std::uint64_t, Slot, HashIdentity>;

  explicit KvStore(Options options) : options_(std::move(options)) {}

  /// Bookkeeping after a successful append: count it, honour
  /// sync_every_put (false when that fsync fails), compact if due.
  bool commit_locked();
  /// The index entry holding `key`, or end(): compares the key bytes in
  /// the log behind each slot that shares its hash.
  Index::const_iterator find_locked(std::uint8_t ns, std::string_view key,
                                    std::uint64_t hash) const;
  /// Read back and decode one indexed put record into `read_buffer_`; false
  /// when it fails the frame check or does not decode as a put in `ns`.
  bool read_record_locked(std::uint8_t ns, const Slot& slot, std::string_view& key,
                          std::string_view& value) const;
  /// Drop `key` from the pending set; true when it was there.
  bool erase_pending_locked(std::uint8_t ns, const std::string& key);
  bool compact_locked();
  void maybe_compact_locked();
  [[nodiscard]] std::uint64_t live_locked() const;

  Options options_;
  mutable std::mutex mutex_;
  std::unique_ptr<RecordLog> log_;
  Index index_[kNamespaces];
  /// Puts whose append failed, awaiting the next compaction. A key is
  /// never both here and in index_.
  std::unordered_map<std::string, std::string> pending_[kNamespaces];
  std::uint64_t pending_bytes_ = 0;
  /// Read-back buffer (frame + payload), reused under mutex_.
  mutable std::vector<std::uint8_t> read_buffer_;
  std::uint64_t total_records_ = 0;
  std::uint64_t dropped_records_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  std::uint64_t compactions_ = 0;
  bool created_ = false;
};

}  // namespace lptsp

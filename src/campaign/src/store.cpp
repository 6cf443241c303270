#include "qelect/campaign/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

#include "qelect/campaign/json.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::campaign {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Format constants.  See the store.hpp header comment for the layout.

constexpr char kWalMagic[4] = {'Q', 'W', 'A', 'L'};
constexpr char kSnapMagic[4] = {'Q', 'S', 'N', 'P'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint8_t kHeaderFrame = 1;
constexpr std::uint8_t kTaskFrame = 2;
// A frame larger than this is garbage, not a record (guards length-field
// corruption from triggering huge allocations).
constexpr std::uint32_t kMaxFrameBytes = 1u << 28;
// The fewest bytes a task body (empty strings, no metrics) and a metric
// (empty name) can take.  A checksum only proves the bytes are the ones
// written, not that a count inside them is honest, so a count that the
// remaining bytes cannot hold is rejected before it sizes an allocation.
constexpr std::size_t kMinTaskBodyBytes = 8 + 4 + 4 + 4 + 8 + 4 + 4;
constexpr std::size_t kMinMetricBytes = 4 + 8;

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected 0xEDB88320) -- the per-frame checksum.
//
// Slicing-by-8: eight derived tables let the loop fold 8 input bytes per
// iteration with independent lookups instead of one serially-dependent
// lookup per byte.  The checksum is in StoreWriter::append's critical
// path, and byte-at-a-time CRC was ~2/3 of the whole append cost.

using CrcTables = std::uint32_t[8][256];

const CrcTables& crc_tables() {
  static const CrcTables& tables = []() -> const CrcTables& {
    static CrcTables t;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[s][i] = t[s - 1][i] >> 8 ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t crc32(const char* data, std::size_t n,
                    std::uint32_t crc = 0) {
  const CrcTables& t = crc_tables();
  crc = ~crc;
  // The 8-wide loop loads the two words little-endian, matching the rest
  // of the on-disk format (and the byte-at-a-time tail loop bit for bit).
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][lo >> 8 & 0xFF] ^ t[5][lo >> 16 & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][hi >> 8 & 0xFF] ^
          t[1][hi >> 16 & 0xFF] ^ t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    crc = t[0][(crc ^ static_cast<unsigned char>(data[i])) & 0xFF] ^
          (crc >> 8);
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers.

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_f64(std::string& out, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked reader over a byte span; every getter returns false at
/// the first malformed field so callers treat the frame as corrupt.
struct Cursor {
  const char* p;
  std::size_t n;
  std::size_t off = 0;

  bool u8(std::uint8_t* v) {
    if (off + 1 > n) return false;
    *v = static_cast<std::uint8_t>(p[off]);
    off += 1;
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (off + 4 > n) return false;
    std::memcpy(v, p + off, 4);
    off += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (off + 8 > n) return false;
    std::memcpy(v, p + off, 8);
    off += 8;
    return true;
  }
  bool f64(double* v) {
    if (off + 8 > n) return false;
    std::memcpy(v, p + off, 8);
    off += 8;
    return true;
  }
  /// A u32 length and that many bytes, viewed in place.
  bool bytes(std::string_view* v) {
    std::uint32_t len = 0;
    if (!u32(&len) || len > n - off) return false;
    *v = std::string_view(p + off, len);
    off += len;
    return true;
  }
  bool str(std::string* v) {
    std::string_view s;
    if (!bytes(&s)) return false;
    v->assign(s);
    return true;
  }
  bool done() const { return off == n; }
};

// ---------------------------------------------------------------------------
// Record body encoding (shared by WAL task frames and snapshot entries).

void encode_task_body(std::string& out, const TaskRecord& r) {
  put_u64(out, r.task_index);
  put_str(out, r.key);
  put_str(out, r.outcome);
  put_u32(out, static_cast<std::uint32_t>(r.attempts));
  put_f64(out, r.duration_seconds);
  put_str(out, r.error);
  put_u32(out, static_cast<std::uint32_t>(r.metrics.size()));
  for (const auto& [k, v] : r.metrics) {
    put_str(out, k);
    put_f64(out, v);
  }
}

bool decode_task_body(Cursor& c, TaskRecord* r) {
  std::uint32_t attempts = 0, metric_count = 0;
  if (!c.u64(&r->task_index) || !c.str(&r->key) || !c.str(&r->outcome) ||
      !c.u32(&attempts) || !c.f64(&r->duration_seconds) ||
      !c.str(&r->error) || !c.u32(&metric_count)) {
    return false;
  }
  if (metric_count > (c.n - c.off) / kMinMetricBytes) return false;
  r->attempts = static_cast<int>(attempts);
  r->metrics.clear();
  r->metrics.reserve(metric_count);
  for (std::uint32_t i = 0; i < metric_count; ++i) {
    std::string name;
    double value = 0;
    if (!c.str(&name) || !c.f64(&value)) return false;
    r->metrics.emplace_back(std::move(name), value);
  }
  return true;
}

/// Encodes `r` as a complete task frame appended to `frames`.  Encodes in
/// place -- frame header patched afterwards -- so appending a record
/// costs no intermediate buffer.
void append_task_frame(std::string& frames, const TaskRecord& r) {
  const std::size_t frame_off = frames.size();
  frames.append(8, '\0');  // payload_len + crc, patched below
  frames.push_back(static_cast<char>(kTaskFrame));
  const std::size_t body_off = frames.size();
  encode_task_body(frames, r);
  const auto body_len = static_cast<std::uint32_t>(frames.size() - body_off);
  const std::uint32_t payload_len = body_len + 1;  // + type byte
  const std::uint32_t crc = crc32(frames.data() + frame_off + 8, payload_len);
  std::memcpy(&frames[frame_off], &payload_len, 4);
  std::memcpy(&frames[frame_off + 4], &crc, 4);
}

struct WalHeader {
  std::uint32_t version = kFormatVersion;
  std::uint64_t generation = 1;
  std::uint64_t base_records = 0;
  StoreHeader header;
};

void encode_header_body(std::string& out, const WalHeader& h) {
  put_u32(out, h.version);
  put_u64(out, h.generation);
  put_u64(out, h.base_records);
  put_u64(out, h.header.spec_hash);
  put_str(out, h.header.name);
  put_str(out, h.header.spec_json);
}

bool decode_header_body(Cursor& c, WalHeader* h) {
  return c.u32(&h->version) && c.u64(&h->generation) &&
         c.u64(&h->base_records) && c.u64(&h->header.spec_hash) &&
         c.str(&h->header.name) && c.str(&h->header.spec_json) && c.done();
}

/// Appends one framed payload (length + crc + payload) to `out`.
void append_frame(std::string& out, const std::string& payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.append(payload);
}

/// Parses the frame at `off`.  Returns false when the bytes from `off` do
/// not form a complete, checksummed frame (torn or corrupt tail).
bool parse_frame(const std::string& data, std::size_t off,
                 std::string_view* payload, std::size_t* next) {
  if (off + 8 > data.size()) return false;
  std::uint32_t len = 0, crc = 0;
  std::memcpy(&len, data.data() + off, 4);
  std::memcpy(&crc, data.data() + off + 4, 4);
  if (len == 0 || len > kMaxFrameBytes || off + 8 + len > data.size()) {
    return false;
  }
  if (crc32(data.data() + off + 8, len) != crc) return false;
  *payload = std::string_view(data.data() + off + 8, len);
  *next = off + 8 + len;
  return true;
}

// ---------------------------------------------------------------------------
// POSIX I/O helpers.  The durability contract is explicit fdatasync: a
// stdio flush only reaches the OS page cache (the bug the JSONL store
// shipped with), so every create/truncate/rename below syncs the file and
// -- for directory-entry changes -- the parent directory.

[[noreturn]] void sys_fail(const std::string& what, const std::string& path) {
  throw CheckError("result store " + path + ": " + what + ": " +
                   std::strerror(errno));
}

void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      sys_fail("write failed", path);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

void fsync_dir_of(const std::string& path) {
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int dfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) sys_fail("cannot open parent directory", path);
  if (::fsync(dfd) != 0) {
    ::close(dfd);
    sys_fail("fsync of parent directory failed", path);
  }
  ::close(dfd);
}

/// A new version of `path`: written to `path.tmp`, then commit() syncs
/// it, renames it over `path` and fsyncs the parent directory.  A crash at
/// any point leaves either the old file or the new one, never a mix; an
/// uncommitted temp file is removed.  Writes are buffered.
class ReplacementFile {
 public:
  explicit ReplacementFile(const std::string& path)
      : path_(path), tmp_(path + ".tmp") {
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) sys_fail("cannot create " + tmp_, path_);
  }
  ~ReplacementFile() {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(tmp_.c_str());
    }
  }
  ReplacementFile(const ReplacementFile&) = delete;
  ReplacementFile& operator=(const ReplacementFile&) = delete;

  void write(std::string_view bytes) {
    buf_.append(bytes);
    if (buf_.size() >= kBufferBytes) flush();
  }

  void commit() {
    flush();
    if (::fdatasync(fd_) != 0) sys_fail("fdatasync failed", path_);
    ::close(std::exchange(fd_, -1));
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      sys_fail("rename of " + tmp_ + " failed", path_);
    }
    fsync_dir_of(path_);
  }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

  void flush() {
    write_all(fd_, buf_.data(), buf_.size(), path_);
    buf_.clear();
  }

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  std::string buf_;
};

/// Reads a whole file into one allocation of its size; a file that cannot
/// be opened reads as missing.
std::string read_file_or_empty(const std::string& path, bool* exists) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  *exists = fd >= 0;
  if (fd < 0) return {};
  // A file that fails to read must not pass for an empty store, which a
  // writer would replace.
  auto fail = [&](const char* what) {
    const int err = errno;
    ::close(fd);
    errno = err;
    sys_fail(what, path);
  };
  struct stat st {};
  if (::fstat(fd, &st) != 0) fail("stat failed");
  std::string data(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t r = ::read(fd, data.data() + got, data.size() - got);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) fail("read failed");
    if (r == 0) break;  // the file shrank since fstat
    got += static_cast<std::size_t>(r);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

// ---------------------------------------------------------------------------
// Snapshot file: "QSNP" | body | u32 crc32(body), where body is
// version/generation/spec identity/record count + length-prefixed task
// bodies.  One whole-file checksum: a snapshot is written once and read
// sequentially, so per-record CRCs would buy nothing.

struct Snapshot {
  std::uint64_t generation = 0;
  StoreHeader header;
  std::vector<TaskRecord> records;
};

/// Splits a snapshot's bytes into its identity (into `snap`; records are
/// left alone) and a view of each record body.  False when the magic,
/// checksum, version or framing fails; the bodies are not decoded.
bool parse_snapshot(const std::string& data, Snapshot* snap,
                    std::vector<std::string_view>* bodies) {
  if (data.size() < 8 || std::memcmp(data.data(), kSnapMagic, 4) != 0) {
    return false;
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  if (crc32(data.data() + 4, data.size() - 8) != stored_crc) return false;
  Cursor c{data.data() + 4, data.size() - 8};
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!c.u32(&version) || version != kFormatVersion ||
      !c.u64(&snap->generation) || !c.u64(&snap->header.spec_hash) ||
      !c.str(&snap->header.name) || !c.str(&snap->header.spec_json) ||
      !c.u64(&count) || count > (c.n - c.off) / (4 + kMinTaskBodyBytes)) {
    return false;
  }
  bodies->clear();
  bodies->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view body;
    if (!c.bytes(&body)) return false;
    bodies->push_back(body);
  }
  return c.done();
}

bool load_snapshot(const std::string& snap_path, Snapshot* snap) {
  bool exists = false;
  const std::string data = read_file_or_empty(snap_path, &exists);
  std::vector<std::string_view> bodies;
  if (!exists || !parse_snapshot(data, snap, &bodies)) return false;
  snap->records.clear();
  snap->records.reserve(bodies.size());
  for (const std::string_view body : bodies) {
    Cursor c{body.data(), body.size()};
    TaskRecord r;
    if (!decode_task_body(c, &r) || !c.done()) return false;
    snap->records.push_back(std::move(r));
  }
  return true;
}

// ---------------------------------------------------------------------------
// WAL parsing.

void load_wal(const std::string& path, const std::string& content,
              LoadedStore* store) {
  std::size_t off = 4;  // past the magic
  store->valid_bytes = off;

  // Generation header first.  A torn header (frame runs past EOF) leaves
  // an empty store the writer re-creates; a complete-but-corrupt one is
  // an error.
  WalHeader wal;
  {
    std::string_view payload;
    std::size_t next = 0;
    if (!parse_frame(content, off, &payload, &next)) {
      store->torn_tail = content.size() > off;
      store->valid_bytes = 4;
      return;
    }
    QELECT_CHECK(!payload.empty() &&
                     static_cast<std::uint8_t>(payload[0]) == kHeaderFrame,
                 "result store " + path + ": first frame is not a header");
    Cursor c{payload.data() + 1, payload.size() - 1};
    QELECT_CHECK(decode_header_body(c, &wal),
                 "result store " + path + ": corrupt generation header");
    QELECT_CHECK(wal.version == kFormatVersion,
                 "result store " + path + ": unsupported format version " +
                     std::to_string(wal.version));
    off = next;
    store->valid_bytes = off;
  }
  store->has_header = true;
  store->header = wal.header;
  store->generation = wal.generation;

  // Snapshot (required when the WAL was compacted against one).
  const std::string snap_path = path + ".snap";
  Snapshot snap;
  bool snap_ok = load_snapshot(snap_path, &snap);
  if (snap_ok) {
    if (snap.header.spec_hash != wal.header.spec_hash ||
        snap.generation < wal.generation) {
      snap_ok = false;  // stale or foreign snapshot
    } else {
      QELECT_CHECK(snap.generation <= wal.generation + 1,
                   "result store " + path + ": snapshot generation " +
                       std::to_string(snap.generation) +
                       " is ahead of log generation " +
                       std::to_string(wal.generation) + " + 1");
    }
  }
  QELECT_CHECK(snap_ok || wal.base_records == 0,
               "result store " + path + ": the log was compacted but its "
               "snapshot " + snap_path + " is missing or corrupt");
  std::unordered_map<std::string, std::size_t> index_of;
  if (snap_ok) {
    store->pending_compaction = snap.generation == wal.generation + 1;
    store->snapshot_records = snap.records.size();
    QELECT_CHECK(store->pending_compaction ||
                     snap.records.size() >= wal.base_records,
                 "result store " + path + ": snapshot holds fewer records "
                 "than the log was compacted against");
    store->records = std::move(snap.records);
    index_of.reserve(store->records.size());
    for (std::size_t i = 0; i < store->records.size(); ++i) {
      index_of.emplace(store->records[i].key, i);
    }
  }

  // Task frames: the valid prefix ends at the first frame whose length or
  // checksum fails (kill points fall between commits, so that tail was
  // never acknowledged).
  while (off < content.size()) {
    std::string_view payload;
    std::size_t next = 0;
    if (!parse_frame(content, off, &payload, &next)) {
      store->torn_tail = true;
      break;
    }
    if (!payload.empty() &&
        static_cast<std::uint8_t>(payload[0]) == kTaskFrame) {
      Cursor c{payload.data() + 1, payload.size() - 1};
      TaskRecord r;
      if (!decode_task_body(c, &r) || !c.done()) {
        store->torn_tail = true;
        break;
      }
      // Later records win (replay over a superset snapshot after a crash
      // mid-compaction dedups here).
      const auto it = index_of.find(r.key);
      if (it != index_of.end()) {
        store->records[it->second] = std::move(r);
      } else {
        index_of.emplace(r.key, store->records.size());
        store->records.push_back(std::move(r));
      }
    }
    // Unknown frame types are preserved bytes but ignored content.
    off = next;
    store->valid_bytes = off;
  }
}

std::size_t compute_low_water(const std::vector<TaskRecord>& records) {
  std::vector<std::uint64_t> indexes;
  indexes.reserve(records.size());
  for (const TaskRecord& r : records) indexes.push_back(r.task_index);
  std::sort(indexes.begin(), indexes.end());
  std::size_t low = 0;
  for (const std::uint64_t i : indexes) {
    if (i == low) {
      ++low;
    } else if (i > low) {
      break;
    }
  }
  return low;
}

}  // namespace

double TaskRecord::metric_or(const std::string& name, double fallback) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return fallback;
}

std::string TaskRecord::to_json() const {
  std::ostringstream out;
  out << "{\"type\":\"task\",\"key\":" << json_quote(key)
      << ",\"outcome\":" << json_quote(outcome) << ",\"attempts\":" << attempts
      << ",\"duration_seconds\":" << json_number(duration_seconds)
      << ",\"error\":" << json_quote(error) << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ',';
    out << json_quote(metrics[i].first) << ':'
        << json_number(metrics[i].second);
  }
  out << "}}";
  return out.str();
}

std::string header_to_json(const StoreHeader& header) {
  std::ostringstream out;
  out << "{\"type\":\"campaign\",\"name\":" << json_quote(header.name)
      << ",\"spec_hash\":" << json_quote(hash_hex(header.spec_hash))
      << ",\"spec\":"
      << (header.spec_json.empty() ? "null" : header.spec_json) << '}';
  return out.str();
}

std::unordered_map<std::string, const TaskRecord*> LoadedStore::by_key()
    const {
  std::unordered_map<std::string, const TaskRecord*> out;
  out.reserve(records.size());
  for (const TaskRecord& r : records) out[r.key] = &r;
  return out;
}

LoadedStore load_store(const std::string& path) {
  LoadedStore store;
  bool exists = false;
  const std::string content = read_file_or_empty(path, &exists);
  if (!exists) return store;
  store.exists = true;

  if (content.size() >= 4 && std::memcmp(content.data(), kWalMagic, 4) == 0) {
    load_wal(path, content, &store);
  } else if (content.size() < 4 &&
             std::memcmp(content.data(), kWalMagic, content.size()) == 0) {
    // A crash inside the very first write can leave a bare magic prefix
    // (including an empty file); nothing was committed.
    store.torn_tail = !content.empty();
  } else {
    throw CheckError("result store " + path + ": not a WAL store");
  }
  store.low_water = compute_low_water(store.records);
  return store;
}

std::string store_to_jsonl(const LoadedStore& store) {
  QELECT_CHECK(store.has_header,
               "cannot export a store without a campaign header");
  std::vector<const TaskRecord*> order;
  order.reserve(store.records.size());
  for (const TaskRecord& r : store.records) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const TaskRecord* a, const TaskRecord* b) {
                     return a->task_index < b->task_index;
                   });
  std::string out = header_to_json(store.header);
  out.push_back('\n');
  for (const TaskRecord* r : order) {
    out += r->to_json();
    out.push_back('\n');
  }
  return out;
}

namespace {

/// Streams a snapshot: the identity, then each body behind its length,
/// under one running checksum.
void write_snapshot(const std::string& snap_path, const StoreHeader& header,
                    std::uint64_t generation,
                    const std::vector<std::string_view>& bodies) {
  ReplacementFile out(snap_path);
  out.write(std::string_view(kSnapMagic, 4));
  std::uint32_t crc = 0;
  auto put = [&](std::string_view bytes) {
    crc = crc32(bytes.data(), bytes.size(), crc);
    out.write(bytes);
  };
  std::string head;
  put_u32(head, kFormatVersion);
  put_u64(head, generation);
  put_u64(head, header.spec_hash);
  put_str(head, header.name);
  put_str(head, header.spec_json);
  put_u64(head, bodies.size());
  put(head);
  for (const std::string_view body : bodies) {
    const auto len = static_cast<std::uint32_t>(body.size());
    char len_bytes[4];
    std::memcpy(len_bytes, &len, 4);
    put(std::string_view(len_bytes, 4));
    put(body);
  }
  char crc_bytes[4];
  std::memcpy(crc_bytes, &crc, 4);
  out.write(std::string_view(crc_bytes, 4));
  out.commit();
}

/// The records a compaction keeps, read from the files: the live
/// snapshot's entries, then the log's task frames, each checked by its
/// CRC and copied as encoded, never decoded.  One body per key survives:
/// the later one, at the earlier one's place -- how load_store resolves
/// keys, so the new snapshot loads as the store did.  Holds both files'
/// bytes, which `bodies()` views: memory is the store's size on disk plus
/// an index entry per key.
class LiveRecords {
 public:
  explicit LiveRecords(const std::string& path) : path_(path) {}

  void add_snapshot(std::uint64_t generation, std::uint64_t spec_hash) {
    const std::string snap_path = path_ + ".snap";
    bool exists = false;
    snap_data_ = read_file_or_empty(snap_path, &exists);
    Snapshot snap;
    std::vector<std::string_view> bodies;
    QELECT_CHECK(exists && parse_snapshot(snap_data_, &snap, &bodies) &&
                     snap.generation == generation &&
                     snap.header.spec_hash == spec_hash,
                 "result store " + path_ + ": the live snapshot " +
                     snap_path + " is missing or corrupt");
    for (const std::string_view body : bodies) keep(body);
  }

  void add_log() {
    bool exists = false;
    log_data_ = read_file_or_empty(path_, &exists);
    QELECT_CHECK(exists && log_data_.size() >= 4 &&
                     std::memcmp(log_data_.data(), kWalMagic, 4) == 0,
                 "result store " + path_ + ": the log is gone or not a WAL");
    for (std::size_t off = 4; off < log_data_.size();) {
      std::string_view payload;
      std::size_t next = 0;
      QELECT_CHECK(parse_frame(log_data_, off, &payload, &next),
                   "result store " + path_ + ": the log frame at byte " +
                       std::to_string(off) + " is torn or corrupt");
      if (static_cast<std::uint8_t>(payload[0]) == kTaskFrame) {
        keep(payload.substr(1));
      }
      off = next;
    }
  }

  const std::vector<std::string_view>& bodies() const { return bodies_; }

 private:
  void keep(std::string_view body) {
    Cursor c{body.data(), body.size()};
    std::uint64_t task_index = 0;
    std::string_view key;
    QELECT_CHECK(c.u64(&task_index) && c.bytes(&key),
                 "result store " + path_ + ": a record without a key");
    const auto [it, fresh] = slot_of_.try_emplace(key, bodies_.size());
    if (fresh) {
      bodies_.push_back(body);
    } else {
      bodies_[it->second] = body;
    }
  }

  std::string path_;
  std::string snap_data_;
  std::string log_data_;
  std::vector<std::string_view> bodies_;
  std::unordered_map<std::string_view, std::size_t> slot_of_;
};

}  // namespace

void write_snapshot_file(const std::string& snap_path,
                         const StoreHeader& header, std::uint64_t generation,
                         const std::vector<TaskRecord>& records) {
  std::vector<std::string> encoded(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    encode_task_body(encoded[i], records[i]);
  }
  write_snapshot(snap_path, header, generation,
                 std::vector<std::string_view>(encoded.begin(), encoded.end()));
}

// ---------------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(const std::string& path, const StoreHeader& header,
                         StoreOptions options)
    : path_(path), header_(header), options_(options) {
  const LoadedStore prior = load_store(path);
  std::lock_guard<std::mutex> sync(sync_mu_);
  if (prior.exists && prior.has_header) {
    QELECT_CHECK(prior.header.spec_hash == header.spec_hash,
                 "result store " + path +
                     " belongs to a different campaign spec (hash " +
                     hash_hex(prior.header.spec_hash) + " != " +
                     hash_hex(header.spec_hash) + ")");
    records_ = prior.records.size();
    generation_ = prior.generation;
    snapshot_base_ = prior.snapshot_records;
    if (prior.pending_compaction) {
      // The snapshot landed but the crash beat the log rewrite: finish
      // the compaction it started.
      open_fresh_locked(prior.generation + 1, prior.records.size());
      snapshot_base_ = prior.records.size();
      return;
    }
    fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND);
    if (fd_ < 0) sys_fail("cannot reopen", path_);
    if (prior.torn_tail) {
      if (::ftruncate(fd_, static_cast<off_t>(prior.valid_bytes)) != 0) {
        sys_fail("cannot truncate torn tail", path_);
      }
      if (::fdatasync(fd_) != 0) sys_fail("fdatasync failed", path_);
    }
    return;
  }
  QELECT_CHECK(!prior.exists || prior.records.empty(),
               "result store " + path + " has records but no header");
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  const std::string snap = path_ + ".snap";
  if (fs::exists(snap)) fs::remove(snap);  // orphan from an older campaign
  open_fresh_locked(1, 0);
}

StoreWriter::~StoreWriter() {
  try {
    commit();
  } catch (...) {
    // Destructors must not throw; an uncommitted tail is a torn tail.
  }
  if (fd_ >= 0) ::close(fd_);
}

void StoreWriter::open_fresh_locked(std::uint64_t generation,
                                    std::uint64_t base) {
  ReplacementFile out(path_);
  std::string frames(kWalMagic, 4);
  WalHeader wal;
  wal.generation = generation;
  wal.base_records = base;
  wal.header = header_;
  std::string payload;
  payload.push_back(static_cast<char>(kHeaderFrame));
  encode_header_body(payload, wal);
  append_frame(frames, payload);
  out.write(frames);
  out.commit();
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) sys_fail("cannot open", path_);
  generation_ = generation;
}

void StoreWriter::append(const TaskRecord& record) {
  std::lock_guard<std::mutex> lock(write_mu_);
  append_task_frame(staged_, record);
  ++appended_;
  ++records_;
}

std::uint64_t StoreWriter::write_staged_locked() {
  // The swap is the only work under the append lock: appends go on into
  // the emptied buffer while this one is written.
  std::uint64_t covered = 0;
  writing_.clear();
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    writing_.swap(staged_);
    covered = appended_;
  }
  write_all(fd_, writing_.data(), writing_.size(), path_);
  return covered;
}

void StoreWriter::commit() {
  std::uint64_t goal = 0;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    goal = appended_;
  }
  std::lock_guard<std::mutex> sync(sync_mu_);
  if (synced_ < goal) {
    const std::uint64_t written = write_staged_locked();
    if (::fdatasync(fd_) != 0) sys_fail("fdatasync failed", path_);
    synced_ = written;
  }
  if (options_.compact_every == 0) return;
  std::uint64_t since = 0;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    since = appended_ - compacted_at_;
  }
  // Second clause keeps total snapshot work linear: compact only once the
  // tail has outgrown the snapshot it would replace.
  if (since >= options_.compact_every && since >= snapshot_base_) {
    compact_locked();
  }
}

void StoreWriter::compact() {
  std::lock_guard<std::mutex> sync(sync_mu_);
  compact_locked();
}

void StoreWriter::compact_locked() {
  // The staged tail goes to the log first, so the files hold every
  // record; the snapshot is built from them alone.
  const std::uint64_t covered = write_staged_locked();
  LiveRecords live(path_);
  if (snapshot_base_ > 0) live.add_snapshot(generation_, header_.spec_hash);
  live.add_log();
  const std::size_t kept = live.bodies().size();
  write_snapshot(path_ + ".snap", header_, generation_ + 1, live.bodies());
  open_fresh_locked(generation_ + 1, kept);
  synced_ = covered;
  compacted_at_ = covered;
  snapshot_base_ = kept;
  std::lock_guard<std::mutex> lock(write_mu_);
  records_ = kept + (appended_ - covered);
}

std::size_t StoreWriter::record_count() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return records_;
}

}  // namespace qelect::campaign

#include "qelect/campaign/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "qelect/campaign/json.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::campaign {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Format constants.  See the store.hpp header comment for the layout.

constexpr char kWalMagic[4] = {'Q', 'W', 'A', 'L'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint8_t kHeaderFrame = 1;
constexpr std::uint8_t kTaskFrame = 2;
// A frame larger than this is garbage, not a record (guards length-field
// corruption from triggering huge allocations).
constexpr std::uint32_t kMaxFrameBytes = 1u << 28;
// The fewest bytes a task body (empty strings, no metrics) and a metric
// (empty name) can take.  A checksum only proves the bytes are the ones
// written, not that a count inside them is honest, so a count that the
// remaining bytes cannot hold is rejected before it sizes an allocation,
// and a frame too short for a task body never counts toward one.
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
// lookup per byte.  The checksum is on every record's append path, and
// byte-at-a-time CRC was ~2/3 of the whole append cost.

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
// Record body encoding.

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
/// any point leaves either the old file or the new one, never a mix, plus
/// at most a stale `path.tmp` that nothing reads and the next replacement
/// truncates; one that throws removes its temp file.  Writes are buffered.
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

/// Reads a whole file, or its first `limit` bytes, into one allocation of
/// that size; a file that cannot be opened reads as missing.
std::string read_file_or_empty(
    const std::string& path, bool* exists,
    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
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
  std::string data(std::min(static_cast<std::size_t>(st.st_size), limit),
                   '\0');
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
// WAL parsing.

/// True when `content` opens with the WAL magic, false when it is a bare
/// prefix of the magic (an empty file included: a crash inside the very
/// first write, nothing committed).  Any other file is not a store.
bool has_wal_magic(const std::string& path, const std::string& content) {
  if (content.size() >= 4 && std::memcmp(content.data(), kWalMagic, 4) == 0) {
    return true;
  }
  if (content.size() < 4 &&
      std::memcmp(content.data(), kWalMagic, content.size()) == 0) {
    return false;
  }
  throw CheckError("result store " + path + ": not a WAL store");
}

/// Reads the generation header, the frame after the magic.  False when
/// that frame is torn (it runs past `content` or fails its checksum): the
/// store is empty and the writer re-creates it.  A complete-but-corrupt
/// header is an error, and so is a header that owes records to a
/// `<path>.snap` snapshot: older versions compacted into one, and the log
/// without it would silently drop those records.
bool parse_header_frame(const std::string& path, const std::string& content,
                        WalHeader* wal, std::size_t* next) {
  std::string_view payload;
  if (!parse_frame(content, 4, &payload, next)) return false;
  QELECT_CHECK(static_cast<std::uint8_t>(payload[0]) == kHeaderFrame,
               "result store " + path + ": first frame is not a header");
  Cursor c{payload.data() + 1, payload.size() - 1};
  QELECT_CHECK(decode_header_body(c, wal),
               "result store " + path + ": corrupt generation header");
  QELECT_CHECK(wal->version == kFormatVersion,
               "result store " + path + ": unsupported format version " +
                   std::to_string(wal->version));
  QELECT_CHECK(wal->base_records == 0,
               "result store " + path + ": " +
                   std::to_string(wal->base_records) + " of its records " +
                   "are in the snapshot " + path + ".snap, which this " +
                   "version does not read; re-run the campaign into a new " +
                   "store");
  return true;
}

/// The task frames from `off` on, judged by their length fields alone:
/// the reservation for decoding them.  A frame too short to hold a task
/// body does not count, so a hostile length field cannot make the
/// reservation larger than decoding the same bytes would allocate.
std::size_t count_task_frames(const std::string& content, std::size_t off) {
  std::size_t count = 0;
  while (content.size() - off > 8) {
    std::uint32_t len = 0;
    std::memcpy(&len, content.data() + off, 4);
    if (len == 0 || len > content.size() - off - 8) break;
    if (len > kMinTaskBodyBytes &&
        static_cast<std::uint8_t>(content[off + 8]) == kTaskFrame) {
      ++count;
    }
    off += 8 + std::size_t{len};
  }
  return count;
}

/// Decodes the header and then every intact task frame, in commit order,
/// into `store->records`; keys are resolved afterwards.
void decode_wal(const std::string& path, const std::string& content,
                LoadedStore* store) {
  std::size_t off = 4;  // past the magic
  store->valid_bytes = off;

  WalHeader wal;
  if (!parse_header_frame(path, content, &wal, &off)) {
    store->torn_tail = content.size() > 4;
    return;
  }
  store->valid_bytes = off;
  store->has_header = true;
  store->header = wal.header;
  store->generation = wal.generation;

  // Task frames: the valid prefix ends at the first frame whose length or
  // checksum fails (kill points fall between commits, so that tail was
  // never acknowledged).
  store->records.reserve(count_task_frames(content, off));
  while (off < content.size()) {
    std::string_view payload;
    std::size_t next = 0;
    if (!parse_frame(content, off, &payload, &next)) {
      store->torn_tail = true;
      break;
    }
    if (static_cast<std::uint8_t>(payload[0]) == kTaskFrame) {
      Cursor c{payload.data() + 1, payload.size() - 1};
      TaskRecord& r = store->records.emplace_back();
      if (!decode_task_body(c, &r) || !c.done()) {
        store->records.pop_back();
        store->torn_tail = true;
        break;
      }
    }
    // Unknown frame types are preserved bytes but ignored content.
    off = next;
    store->valid_bytes = off;
  }
}

/// Keeps one element per key in place: a later element replaces the
/// earlier one at its position, and the elements after it close up.  The
/// loader applies it to decoded records and compaction to frame views, so
/// a compacted log loads as the store did.  `key_of` views an element's
/// key; the index holds positions, so no key is copied.
template <typename T, typename KeyOf>
void keep_later_per_key(std::vector<T>* elements, KeyOf key_of) {
  std::vector<T>& e = *elements;
  const auto key_hash = [&](std::size_t i) {
    return std::hash<std::string_view>{}(key_of(e[i]));
  };
  const auto same_key = [&](std::size_t a, std::size_t b) {
    return key_of(e[a]) == key_of(e[b]);
  };
  std::unordered_set<std::size_t, decltype(key_hash), decltype(same_key)>
      first(e.size(), key_hash, same_key);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < e.size(); ++i) {
    if (kept != i) e[kept] = std::move(e[i]);
    const auto [it, fresh] = first.insert(kept);
    if (fresh) {
      ++kept;
    } else {
      e[*it] = std::move(e[kept]);
    }
  }
  e.resize(kept);
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

LoadedStore load_store(const std::string& path) {
  LoadedStore store;
  bool exists = false;
  std::string content = read_file_or_empty(path, &exists);
  if (!exists) return store;
  store.exists = true;

  if (has_wal_magic(path, content)) {
    decode_wal(path, content, &store);
  } else {
    store.torn_tail = !content.empty();
  }
  std::string().swap(content);  // free the file's bytes before the index
  keep_later_per_key(&store.records,
                     [](const TaskRecord& r) -> std::string_view {
                       return r.key;
                     });
  store.low_water = compute_low_water(store.records);
  return store;
}

std::optional<StoreHeader> load_store_header(const std::string& path) {
  // The magic and the header frame's length and checksum, then the frame.
  constexpr std::size_t kFrameStart = 4 + 8;
  bool exists = false;
  std::string head = read_file_or_empty(path, &exists, kFrameStart);
  if (!exists || !has_wal_magic(path, head) || head.size() < kFrameStart) {
    return std::nullopt;
  }
  std::uint32_t len = 0;
  std::memcpy(&len, head.data() + 4, 4);
  head = read_file_or_empty(path, &exists, kFrameStart + len);
  WalHeader wal;
  std::size_t next = 0;
  if (!parse_header_frame(path, head, &wal, &next)) return std::nullopt;
  return wal.header;
}

std::vector<const TaskRecord*> records_in_task_order(
    const LoadedStore& store) {
  std::vector<const TaskRecord*> order;
  order.reserve(store.records.size());
  for (const TaskRecord& r : store.records) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const TaskRecord* a, const TaskRecord* b) {
                     return a->task_index < b->task_index;
                   });
  return order;
}

std::string store_to_jsonl(const LoadedStore& store) {
  QELECT_CHECK(store.has_header,
               "cannot export a store without a campaign header");
  std::string out = header_to_json(store.header);
  out.push_back('\n');
  for (const TaskRecord* r : records_in_task_order(store)) {
    out += r->to_json();
    out.push_back('\n');
  }
  return out;
}

namespace {

/// The key of a whole task frame (length, checksum, payload), whose body
/// opens with the u64 task_index and then the key; null when the body is
/// too short to hold them.
std::optional<std::string_view> frame_key(std::string_view frame) {
  Cursor c{frame.data() + 9, frame.size() - 9};  // past len, crc and type
  std::uint64_t task_index = 0;
  std::string_view key;
  if (!c.u64(&task_index) || !c.bytes(&key)) return std::nullopt;
  return key;
}

/// The task frames a compaction keeps, viewed in `log` (the store's bytes):
/// each checked by its CRC and kept whole -- length, checksum and payload
/// -- never decoded, one per key as load_store keeps them.  Memory is the
/// log's size plus a view per frame and an index entry per key.
std::vector<std::string_view> live_frames(const std::string& path,
                                          const std::string& log) {
  QELECT_CHECK(log.size() >= 4 && std::memcmp(log.data(), kWalMagic, 4) == 0,
               "result store " + path + ": the log is gone or not a WAL");
  std::vector<std::string_view> frames;
  for (std::size_t off = 4; off < log.size();) {
    std::string_view payload;
    std::size_t next = 0;
    QELECT_CHECK(parse_frame(log, off, &payload, &next),
                 "result store " + path + ": the log frame at byte " +
                     std::to_string(off) + " is torn or corrupt");
    if (static_cast<std::uint8_t>(payload[0]) == kTaskFrame) {
      const std::string_view frame(log.data() + off, next - off);
      QELECT_CHECK(frame_key(frame).has_value(),
                   "result store " + path + ": a record without a key");
      frames.push_back(frame);
    }
    off = next;
  }
  keep_later_per_key(&frames,
                     [](std::string_view frame) { return *frame_key(frame); });
  return frames;
}

}  // namespace

// ---------------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(const std::string& path, const StoreHeader& header)
    : StoreWriter(path, header, load_store(path)) {}

StoreWriter::StoreWriter(const std::string& path, const StoreHeader& header,
                         const LoadedStore& prior)
    : path_(path), header_(header) {
  std::lock_guard<std::mutex> lock(mu_);
  if (prior.exists && prior.has_header) {
    QELECT_CHECK(prior.header.spec_hash == header.spec_hash,
                 "result store " + path +
                     " belongs to a different campaign spec (hash " +
                     hash_hex(prior.header.spec_hash) + " != " +
                     hash_hex(header.spec_hash) + ")");
    records_ = prior.records.size();
    generation_ = prior.generation;
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
  rewrite_locked(1, {});
}

StoreWriter::~StoreWriter() {
  try {
    commit();
  } catch (...) {
    // Destructors must not throw; an uncommitted tail is a torn tail.
  }
  if (fd_ >= 0) ::close(fd_);
}

void StoreWriter::rewrite_locked(std::uint64_t generation,
                                 const std::vector<std::string_view>& frames) {
  ReplacementFile out(path_);
  std::string head(kWalMagic, 4);
  WalHeader wal;
  wal.generation = generation;
  wal.header = header_;
  std::string payload;
  payload.push_back(static_cast<char>(kHeaderFrame));
  encode_header_body(payload, wal);
  append_frame(head, payload);
  out.write(head);
  for (const std::string_view frame : frames) out.write(frame);
  out.commit();
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) sys_fail("cannot open", path_);
  generation_ = generation;
}

void StagedFrames::append(const TaskRecord& record) {
  append_task_frame(bytes_, record);
  ++frames_;
}

void StoreWriter::append(const TaskRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  staged_.append(record);
  ++records_;
}

void StoreWriter::write_staged_locked(std::span<StagedFrames> stages) {
  // The tail is one more stage, the first; the caller syncs them all once.
  write_all(fd_, staged_.bytes_.data(), staged_.bytes_.size(), path_);
  staged_.clear();
  for (StagedFrames& stage : stages) {
    write_all(fd_, stage.bytes_.data(), stage.bytes_.size(), path_);
    records_ += stage.size();
    stage.clear();
  }
}

void StoreWriter::commit() { commit({}); }

void StoreWriter::commit(std::span<StagedFrames> stages) {
  std::lock_guard<std::mutex> lock(mu_);
  if (staged_.empty() &&
      std::all_of(stages.begin(), stages.end(),
                  [](const StagedFrames& stage) { return stage.empty(); })) {
    return;
  }
  write_staged_locked(stages);
  if (::fdatasync(fd_) != 0) sys_fail("fdatasync failed", path_);
}

void StoreWriter::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  // The staged tail goes to the log first, so the log holds every record;
  // the rewrite is built from it alone.
  write_staged_locked({});
  bool exists = false;
  const std::string log = read_file_or_empty(path_, &exists);
  const std::vector<std::string_view> frames = live_frames(path_, log);
  rewrite_locked(generation_ + 1, frames);
  records_ = frames.size();
}

std::uint64_t StoreWriter::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::size_t StoreWriter::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

}  // namespace qelect::campaign

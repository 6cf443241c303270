// Store crash-injection suite: the WAL's recovery contract checked the
// hard way.  Every test drives StoreWriter/load_store directly with
// synthetic records (no simulator in the loop), so the truncation sweep
// can afford to chop the file at EVERY byte offset and resume from each
// wreck, and the byte-flip sweep can corrupt every byte and watch the CRC
// reject it.  The invariant under test throughout: recovery yields an
// exact logical prefix of what was committed -- never a garbled record,
// never a record from beyond the first broken frame -- and the JSONL
// export of the recovered+resumed store is byte-identical to an
// uninterrupted run's.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qelect/campaign/store.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/hash.hpp"

namespace qelect::campaign {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  fs::path dir;
  explicit ScratchDir(const std::string& name)
      : dir(fs::temp_directory_path() /
            ("qelect_store_test_" + name + std::to_string(::getpid()))) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~ScratchDir() { fs::remove_all(dir); }
  std::string path(const std::string& file) const {
    return (dir / file).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StoreHeader test_header() {
  StoreHeader h;
  h.name = "store-suite";
  h.spec_hash = 0x00c0ffee12345678ull;
  h.spec_json = R"({"name":"store-suite","workload":"elect"})";
  return h;
}

/// Synthetic record `i`: varied outcomes, metrics, and error text so the
/// encoder exercises every field (including embedded quotes).
TaskRecord test_record(std::uint64_t i) {
  TaskRecord r;
  r.task_index = i;
  r.key = "elect/synthetic(" + std::to_string(i) + ")/p=0/s=1";
  r.attempts = static_cast<int>(i % 3) + 1;
  r.duration_seconds = 0;
  if (i % 5 == 4) {
    r.outcome = "failed";
    r.error = "injected \"quoted\" failure #" + std::to_string(i);
  } else {
    r.outcome = "ok";
    r.metrics.emplace_back("n", static_cast<double>(i));
    r.metrics.emplace_back("moves", static_cast<double>(i * 7 + 1));
    r.metrics.emplace_back("clean_election", i % 2 ? 1.0 : 0.0);
  }
  return r;
}

std::vector<TaskRecord> test_records(std::size_t n) {
  std::vector<TaskRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(test_record(i));
  return out;
}

/// Writes a fresh WAL store holding records 0..n-1, committed durably.
void write_store(const std::string& path, std::size_t n) {
  StoreWriter writer(path, test_header());
  for (const TaskRecord& r : test_records(n)) writer.append(r);
  writer.commit();
}

/// The logs the damage sweeps start from, each holding records 0..n-1 in
/// order: one that never compacted, and one compacted to generation 2
/// after record 1 was committed twice (first as a timeout), so damage
/// inside a compacted log is checked like damage inside any log.
std::vector<std::string> sweep_inputs(const std::string& path,
                                      std::size_t n) {
  write_store(path, n);
  std::vector<std::string> logs{slurp(path)};
  fs::remove(path);
  {
    StoreWriter writer(path, test_header());
    TaskRecord superseded = test_record(1);
    superseded.outcome = "timeout";
    superseded.metrics.clear();
    for (std::size_t i = 0; i < n; ++i) {
      writer.append(i == 1 ? superseded : test_record(i));
    }
    writer.append(test_record(1));
    writer.commit();
    writer.compact();
  }
  logs.push_back(slurp(path));
  return logs;
}

/// The export a store holding the first `k` synthetic records produces.
std::string expected_export(std::size_t k) {
  std::string out = header_to_json(test_header());
  out.push_back('\n');
  for (std::size_t i = 0; i < k; ++i) {
    out += test_record(i).to_json();
    out.push_back('\n');
  }
  return out;
}

/// Little-endian field encoders and the frame checksum (CRC32, IEEE
/// reflected), bit by bit: enough to forge frames and headers whose
/// checksums hold but whose contents lie.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

std::uint32_t crc32_of(const char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(p[i]);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

/// Record `i` shaped like an elect-sweep task: a ring key and the eight
/// metrics ELECT reports.
TaskRecord elect_record(std::uint64_t i) {
  TaskRecord r;
  r.task_index = i;
  r.key = "elect/ring(" + std::to_string(6 + i % 9) + ")/p=0." +
          std::to_string(1 + i % 5) + "/s=" + std::to_string(i);
  r.outcome = "ok";
  for (const char* name : {"n", "final_gcd", "completed", "clean_election",
                           "clean_failure", "matches_oracle", "moves",
                           "steps"}) {
    r.metrics.emplace_back(name, static_cast<double>(i % 977));
  }
  return r;
}

/// The process's peak resident set (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

TEST(WalStore, RoundTripsRecordsAndHeader) {
  ScratchDir scratch("roundtrip");
  const std::string path = scratch.path("s.qws");
  write_store(path, 25);
  const LoadedStore store = load_store(path);
  EXPECT_TRUE(store.exists);
  EXPECT_TRUE(store.has_header);
  EXPECT_FALSE(store.torn_tail);
  EXPECT_EQ(store.generation, 1u);
  EXPECT_EQ(store.header.name, "store-suite");
  EXPECT_EQ(store.header.spec_hash, test_header().spec_hash);
  EXPECT_EQ(store.header.spec_json, test_header().spec_json);
  ASSERT_EQ(store.records.size(), 25u);
  EXPECT_EQ(store.low_water, 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(store.records[i].to_json(), test_record(i).to_json());
    EXPECT_EQ(store.records[i].task_index, i);
  }
  EXPECT_EQ(store_to_jsonl(store), expected_export(25));
}

// The tentpole crash test: truncate the WAL at EVERY byte offset, load,
// and check the recovery is an exact logical prefix; then resume (reopen
// a writer, append what's missing, commit) and check the export equals an
// uninterrupted run's, byte for byte.
TEST(WalStore, TruncationSweepRecoversExactLogicalPrefix) {
  ScratchDir scratch("truncsweep");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kRecords = 12;
  const std::string full_export = expected_export(kRecords);
  for (const std::string& full : sweep_inputs(path, kRecords)) {
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      spit(path, full.substr(0, cut));
      const LoadedStore store = load_store(path);
      EXPECT_TRUE(store.exists);
      EXPECT_EQ(store.torn_tail,
                cut != full.size() && store.valid_bytes != cut)
          << "cut=" << cut;
      EXPECT_LE(store.valid_bytes, cut) << "cut=" << cut;
      const std::size_t k = store.records.size();
      ASSERT_LE(k, kRecords) << "cut=" << cut;
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(store.records[i].to_json(), test_record(i).to_json())
            << "cut=" << cut << " record=" << i;
      }
      EXPECT_EQ(store.low_water, k) << "cut=" << cut;

      // Resume over the wreck: the writer truncates the torn tail and the
      // missing suffix is re-appended.
      {
        StoreWriter writer(path, test_header());
        ASSERT_EQ(writer.record_count(), k) << "cut=" << cut;
        for (std::size_t i = k; i < kRecords; ++i) {
          writer.append(test_record(i));
        }
        writer.commit();
      }
      EXPECT_EQ(store_to_jsonl(load_store(path)), full_export)
          << "cut=" << cut;
    }
  }
}

// `qelect resume` reads only the generation header.  At every cut of the
// file it must agree with what load_store says about the header, and it
// refuses a file that is not a store as load_store does.
TEST(WalStore, HeaderReadsAloneAndAgreesWithLoadStoreAtEveryCut) {
  ScratchDir scratch("header");
  const std::string path = scratch.path("s.qws");
  EXPECT_FALSE(load_store_header(path).has_value());  // no file yet
  write_store(path, 6);
  const std::string full = slurp(path);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    spit(path, full.substr(0, cut));
    const LoadedStore store = load_store(path);
    const std::optional<StoreHeader> header = load_store_header(path);
    ASSERT_EQ(header.has_value(), store.has_header) << "cut=" << cut;
    if (!header) continue;
    EXPECT_EQ(header->name, store.header.name) << "cut=" << cut;
    EXPECT_EQ(header->spec_hash, store.header.spec_hash) << "cut=" << cut;
    EXPECT_EQ(header->spec_json, store.header.spec_json) << "cut=" << cut;
  }

  const std::string text_path = scratch.path("s.jsonl");
  spit(text_path, expected_export(3));
  try {
    load_store_header(text_path);
    ADD_FAILURE() << "load_store_header read export text as a store";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(text_path + ": not a WAL store"),
              std::string::npos)
        << e.what();
  }
}

// Flip every byte of the WAL in turn: the CRC (or the magic/header check)
// must reject the damage.  Recovery may shorten the store -- the flipped
// frame and everything after it is gone -- but every surviving record must
// be exact, and a complete-but-corrupt interior is never silently used.
TEST(WalStore, ByteFlipSweepNeverYieldsAGarbledRecord) {
  ScratchDir scratch("flipsweep");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kRecords = 10;
  for (const std::string& full : sweep_inputs(path, kRecords)) {
    for (std::size_t at = 0; at < full.size(); ++at) {
      std::string damaged = full;
      damaged[at] = static_cast<char>(damaged[at] ^ 0x41);
      spit(path, damaged);
      try {
        const LoadedStore store = load_store(path);
        ASSERT_LE(store.records.size(), kRecords) << "at=" << at;
        for (std::size_t i = 0; i < store.records.size(); ++i) {
          ASSERT_EQ(store.records[i].to_json(), test_record(i).to_json())
              << "at=" << at << " record=" << i;
        }
      } catch (const CheckError&) {
        // Damage to the magic or the generation header is fatal rather than
        // recoverable; that is allowed, silence is not.
      }
    }
  }
}

/// The frames after the magic and the generation header.
std::string frames_after_header(const std::string& log) {
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, log.data() + 4, 4);
  return log.substr(4 + 8 + header_len);
}

TEST(WalStore, CompactionRewritesTheLogWithOneFramePerKey) {
  ScratchDir scratch("compact");
  const std::string path = scratch.path("s.qws");
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 0; i < 20; ++i) writer.append(test_record(i));
    writer.commit();
    const std::string before = slurp(path);
    writer.compact();
    EXPECT_EQ(writer.generation(), 2u);
    // Unique keys: the rewrite copies every frame as it was; only the
    // header changed.
    const std::string after = slurp(path);
    EXPECT_EQ(after.size(), before.size());
    EXPECT_EQ(frames_after_header(after), frames_after_header(before));
    for (std::size_t i = 20; i < 30; ++i) writer.append(test_record(i));
    writer.commit();
  }
  // The log is the one file.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(scratch.dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"s.qws"});
  const LoadedStore store = load_store(path);
  EXPECT_EQ(store.generation, 2u);
  ASSERT_EQ(store.records.size(), 30u);
  EXPECT_EQ(store.low_water, 30u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(30));
}

/// A log as older versions' compaction left it: a format-1 generation
/// header owing `base_records` records to `<path>.snap`, then `tail`.
std::string forged_compacted_log(std::uint64_t base_records,
                                 const std::string& tail) {
  const StoreHeader h = test_header();
  std::string payload(1, '\x01');  // header frame
  put_u32(payload, 1);             // format version
  put_u64(payload, 2);             // generation
  put_u64(payload, base_records);
  put_u64(payload, h.spec_hash);
  put_str(payload, h.name);
  put_str(payload, h.spec_json);
  std::string log = "QWAL";
  put_u32(log, static_cast<std::uint32_t>(payload.size()));
  put_u32(log, crc32_of(payload.data(), payload.size()));
  return log + payload + tail;
}

// A log that owes records to a snapshot cannot be read without it, and
// its snapshot is a format this version does not read: the reader, the
// header reader and the writer refuse it by naming the snapshot, and
// neither file changes.
TEST(WalStore, LogOwingRecordsToASnapshotIsRefusedAndLeftUntouched) {
  ScratchDir scratch("owessnap");
  const std::string path = scratch.path("s.qws");
  const std::string snap_path = path + ".snap";
  // Records 0..4 were owed to the snapshot; 5 is the log's tail.
  {
    StoreWriter donor(path, test_header());
    donor.append(test_record(5));
  }
  const std::string log =
      forged_compacted_log(5, frames_after_header(slurp(path)));
  const std::string snap = "arbitrary snapshot bytes";
  for (const bool with_snap : {false, true}) {
    SCOPED_TRACE(with_snap ? "with .snap" : "without .snap");
    spit(path, log);
    if (with_snap) spit(snap_path, snap);
    const auto expect_refusal = [&](const auto& open) {
      try {
        open();
        ADD_FAILURE() << "accepted a log that owes records to a snapshot";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(snap_path), std::string::npos)
            << e.what();
      }
    };
    expect_refusal([&] { load_store(path); });
    expect_refusal([&] { load_store_header(path); });
    expect_refusal([&] { StoreWriter writer(path, test_header()); });
    EXPECT_EQ(slurp(path), log);
    EXPECT_EQ(fs::exists(snap_path), with_snap);
    if (with_snap) {
      EXPECT_EQ(slurp(snap_path), snap);
    }
  }
}

// A compaction killed before its rename leaves the old log and a partial
// `<path>.tmp`.  Nothing reads the temp file; the next compaction
// truncates and replaces it.
TEST(WalStore, KilledCompactionLeavesTheLogAsItWas) {
  ScratchDir scratch("killedcompact");
  const std::string path = scratch.path("s.qws");
  const std::string tmp_path = path + ".tmp";
  write_store(path, 8);
  const std::string log = slurp(path);
  spit(tmp_path, log.substr(0, log.size() / 2));

  const LoadedStore store = load_store(path);
  EXPECT_FALSE(store.torn_tail);
  EXPECT_EQ(store.generation, 1u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(8));
  {
    StoreWriter writer(path, test_header());
    writer.compact();
    EXPECT_EQ(writer.generation(), 2u);
  }
  EXPECT_FALSE(fs::exists(tmp_path));
  EXPECT_EQ(frames_after_header(slurp(path)), frames_after_header(log));
  EXPECT_EQ(store_to_jsonl(load_store(path)), expected_export(8));
}

TEST(WalStore, StaleSnapshotNextToAnUncompactedLogIsIgnored) {
  ScratchDir scratch("stalesnap");
  const std::string path = scratch.path("s.qws");
  write_store(path, 5);
  // A snapshot file from some older world: the log owes it nothing
  // (base_records == 0), so it is neither read nor removed.
  const std::string snap = "stale snapshot bytes\x01";
  spit(path + ".snap", snap);
  const LoadedStore store = load_store(path);
  ASSERT_EQ(store.records.size(), 5u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(5));
  {
    StoreWriter writer(path, test_header());
    writer.append(test_record(5));
  }
  EXPECT_EQ(store_to_jsonl(load_store(path)), expected_export(6));
  EXPECT_EQ(slurp(path + ".snap"), snap);
}

// A store is read only as a WAL.  An export's text at a store path is
// refused by the reader and the writer alike, and nothing is written: not
// the file, not a temp file beside it.
TEST(WalStore, ExportTextIsRefusedAndLeftUntouched) {
  ScratchDir scratch("notwal");
  const std::string path = scratch.path("s.jsonl");
  const std::string text = expected_export(9);
  spit(path, text);
  try {
    load_store(path);
    ADD_FAILURE() << "load_store read export text as a store";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ": not a WAL store"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(StoreWriter(path, test_header()), CheckError);
  EXPECT_EQ(slurp(path), text);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(WalStore, ExportOrdersByTaskIndexNotCommitOrder) {
  ScratchDir scratch("ooo");
  const std::string path = scratch.path("s.qws");
  {
    StoreWriter writer(path, test_header());
    for (const std::uint64_t i : {3u, 0u, 2u, 1u}) {
      writer.append(test_record(i));
    }
    writer.commit();
  }
  const LoadedStore store = load_store(path);
  EXPECT_EQ(store.low_water, 4u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(4));
  // Commit order is preserved in the loaded records themselves.
  EXPECT_EQ(store.records[0].task_index, 3u);
}

TEST(WalStore, LowWaterStopsAtTheFirstGap) {
  ScratchDir scratch("lowwater");
  const std::string path = scratch.path("s.qws");
  {
    StoreWriter writer(path, test_header());
    for (const std::uint64_t i : {0u, 1u, 2u, 5u, 6u}) {
      writer.append(test_record(i));
    }
    writer.commit();
  }
  EXPECT_EQ(load_store(path).low_water, 3u);
}

// The group-commit path under real contention (this is the TSan target):
// concurrent appenders + committers must never lose a record, and every
// commit() must return only after its records are flushed.
TEST(WalStore, ConcurrentAppendAndGroupCommitLosesNothing) {
  ScratchDir scratch("threads");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  {
    StoreWriter writer(path, test_header());
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          writer.append(test_record(t * kPerThread + i));
          if (i % 17 == 0) writer.commit();
        }
        writer.commit();
      });
    }
    for (std::thread& th : pool) th.join();
    EXPECT_EQ(writer.record_count(), kThreads * kPerThread);
  }
  const LoadedStore store = load_store(path);
  ASSERT_EQ(store.records.size(), kThreads * kPerThread);
  EXPECT_EQ(store.low_water, kThreads * kPerThread);
  EXPECT_EQ(store_to_jsonl(store),
            expected_export(kThreads * kPerThread));
}

TEST(WalStore, WriterRefusesAForeignSpecHash) {
  ScratchDir scratch("foreign");
  const std::string path = scratch.path("s.qws");
  write_store(path, 3);
  StoreHeader other = test_header();
  other.spec_hash ^= 1;
  EXPECT_THROW(StoreWriter(path, other), CheckError);
}

// A frame's checksum proves only that its bytes are the ones written: a
// frame whose intact CRC covers a metric count its bytes cannot hold ends
// the valid prefix like any malformed body, and never sizes an allocation.
TEST(WalStore, FrameClaimingMoreMetricsThanItHoldsIsATornTail) {
  ScratchDir scratch("liarframe");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kRecords = 6;
  write_store(path, 3);
  std::string payload(1, '\x02');  // task frame
  put_u64(payload, 3);
  put_str(payload, test_record(3).key);
  put_str(payload, "ok");
  put_u32(payload, 1);
  put_u64(payload, 0);  // duration 0.0
  put_str(payload, "");
  put_u32(payload, 0xFFFFFFFFu);  // metric count
  put_str(payload, "n");
  put_u64(payload, 0);
  std::string frame;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32_of(payload.data(), payload.size()));
  frame += payload;
  spit(path, slurp(path) + frame);

  const LoadedStore store = load_store(path);
  EXPECT_TRUE(store.torn_tail);
  ASSERT_EQ(store.records.size(), 3u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(3));
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 3; i < kRecords; ++i) writer.append(test_record(i));
    writer.commit();
  }
  const LoadedStore resumed = load_store(path);
  EXPECT_FALSE(resumed.torn_tail);
  EXPECT_EQ(store_to_jsonl(resumed), expected_export(kRecords));
}

// The writer holds only the frames the log lacks, so its memory does not
// grow with the log: 131,072 elect-shaped records (a ~30 MB log) appended
// with a commit every 4,096, once through append and once through four
// caller stages, as the engine's shards stage them.  Both runs must stay
// within the bound of the peak RSS the test started at.
TEST(WalStore, WriterMemoryStaysFlatAsTheLogGrows) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators hold freed memory";
#endif
  ScratchDir scratch("flatmem");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kRecords = 131072;
  const double before = peak_rss_mib();
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 0; i < kRecords; ++i) {
      writer.append(elect_record(i));
      if ((i + 1) % 4096 == 0) writer.commit();
    }
    EXPECT_EQ(writer.record_count(), kRecords);
  }
  EXPECT_LT(peak_rss_mib() - before, 16.0);
  {
    StoreWriter writer(scratch.path("staged.qws"), test_header());
    std::vector<StagedFrames> stages(4);
    for (std::size_t i = 0; i < kRecords; ++i) {
      stages[i % stages.size()].append(elect_record(i));
      if ((i + 1) % 4096 == 0) writer.commit(stages);
    }
    EXPECT_EQ(writer.record_count(), kRecords);
  }
  EXPECT_LT(peak_rss_mib() - before, 16.0);
}

// Compaction reads the files, so it must see what a reopen loaded and
// what is still staged as well as what this writer committed.
TEST(WalStore, CompactionAfterReopenKeepsEveryRecord) {
  ScratchDir scratch("reopencompact");
  const std::string path = scratch.path("s.qws");
  write_store(path, 10);
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 10; i < 15; ++i) writer.append(test_record(i));
    writer.commit();
    for (std::size_t i = 15; i < 18; ++i) writer.append(test_record(i));
    writer.compact();  // 15..17 are staged, not committed
    EXPECT_EQ(writer.record_count(), 18u);
    const LoadedStore compacted = load_store(path);
    EXPECT_EQ(compacted.generation, 2u);
    EXPECT_EQ(compacted.records.size(), 18u);
    EXPECT_EQ(store_to_jsonl(compacted), expected_export(18));
    for (std::size_t i = 18; i < 22; ++i) writer.append(test_record(i));
  }
  EXPECT_EQ(store_to_jsonl(load_store(path)), expected_export(22));
  {
    StoreWriter writer(path, test_header());
    writer.compact();
    EXPECT_EQ(writer.generation(), 3u);
    EXPECT_EQ(writer.record_count(), 22u);
  }
  const LoadedStore store = load_store(path);
  EXPECT_EQ(store.generation, 3u);
  EXPECT_EQ(store.records.size(), 22u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(22));
}

// A re-run writes a key again; the log resolves it to the later record,
// and so must the log that compaction rewrites.
TEST(WalStore, CompactionKeepsTheLaterRecordOfAKey) {
  ScratchDir scratch("rerun");
  const std::string path = scratch.path("s.qws");
  TaskRecord rerun = test_record(4);
  ASSERT_FALSE(rerun.ok());
  rerun.outcome = "ok";
  rerun.error.clear();
  rerun.metrics = {{"n", 4}};
  write_store(path, 6);
  {
    StoreWriter writer(path, test_header());
    writer.append(rerun);
    writer.commit();
    const std::string before = store_to_jsonl(load_store(path));
    EXPECT_NE(before.find(rerun.to_json()), std::string::npos);
    writer.compact();
    const LoadedStore after = load_store(path);
    EXPECT_EQ(store_to_jsonl(after), before);
    EXPECT_EQ(after.records.size(), 6u);
    EXPECT_EQ(writer.record_count(), 6u);
  }
}

// The group-commit hammer with a ninth thread compacting while eight
// append and commit (the TSan target for compaction).
TEST(WalStore, ConcurrentAppendCommitAndCompactionLoseNothing) {
  ScratchDir scratch("threadscompact");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  constexpr std::size_t kCompactions = 8;
  {
    StoreWriter writer(path, test_header());
    std::vector<std::thread> pool;
    pool.reserve(kThreads + 1);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          writer.append(test_record(t * kPerThread + i));
          if (i % 17 == 0) writer.commit();
        }
        writer.commit();
      });
    }
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < kCompactions; ++i) {
        writer.compact();
        std::this_thread::yield();
      }
    });
    for (std::thread& th : pool) th.join();
    EXPECT_EQ(writer.generation(), 1 + kCompactions);
    EXPECT_EQ(writer.record_count(), kThreads * kPerThread);
  }
  const LoadedStore store = load_store(path);
  EXPECT_EQ(store.generation, 1 + kCompactions);
  EXPECT_EQ(store_to_jsonl(store), expected_export(kThreads * kPerThread));
}

// The log bytes of a fixed single-thread sequence, pinned: the writer's
// internals may change, the files it writes may not.  The first pin, a
// log that never compacted, is the one earlier versions wrote too.
TEST(WalStore, FileBytesArePinned) {
  ScratchDir scratch("pinned");
  const std::string path = scratch.path("s.qws");
  // The pins were taken with the published FNV-1a 64 basis.
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  // Commits records [begin, end) in order: through append, or with the
  // first through append and the rest split over three caller stages.
  auto commit = [](StoreWriter& writer, std::size_t begin, std::size_t end,
                   bool through_stages) {
    if (!through_stages) {
      for (std::size_t i = begin; i < end; ++i) writer.append(test_record(i));
      writer.commit();
      return;
    }
    writer.append(test_record(begin));
    std::vector<StagedFrames> stages(3);
    for (std::size_t i = begin + 1; i < end; ++i) {
      stages[(i - begin - 1) * stages.size() / (end - begin - 1)].append(
          test_record(i));
    }
    writer.commit(stages);
    for (const StagedFrames& stage : stages) EXPECT_TRUE(stage.empty());
  };
  for (const bool through_stages : {false, true}) {
    SCOPED_TRACE(through_stages ? "caller stages" : "append");
    fs::remove(path);
    std::vector<std::uint64_t> hashes;
    auto pin = [&] {
      hashes.push_back(util::fnv1a64(slurp(path), kBasis));
    };
    {
      StoreWriter writer(path, test_header());
      commit(writer, 0, 20, through_stages);
      pin();
      writer.compact();
      pin();
      commit(writer, 20, 30, through_stages);
    }
    {
      StoreWriter writer(path, test_header());
      commit(writer, 30, 35, through_stages);
      writer.compact();
      pin();
      EXPECT_EQ(writer.record_count(), 35u);
    }
    EXPECT_EQ(hashes, (std::vector<std::uint64_t>{0xed9060da92e53245ull,
                                                  0xdaa3e02898ec29c6ull,
                                                  0xe3e50b365674e655ull}));
  }
}

}  // namespace
}  // namespace qelect::campaign

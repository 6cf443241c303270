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
/// reflected), bit by bit: enough to forge frames and snapshots whose
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
  write_store(path, kRecords);
  const std::string full = slurp(path);
  const std::string full_export = expected_export(kRecords);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    spit(path, full.substr(0, cut));
    const LoadedStore store = load_store(path);
    EXPECT_TRUE(store.exists);
    EXPECT_EQ(store.torn_tail, cut != full.size() && store.valid_bytes != cut)
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

// Flip every byte of the WAL in turn: the CRC (or the magic/header check)
// must reject the damage.  Recovery may shorten the store -- the flipped
// frame and everything after it is gone -- but every surviving record must
// be exact, and a complete-but-corrupt interior is never silently used.
TEST(WalStore, ByteFlipSweepNeverYieldsAGarbledRecord) {
  ScratchDir scratch("flipsweep");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kRecords = 10;
  write_store(path, kRecords);
  const std::string full = slurp(path);

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

TEST(WalStore, CompactionMovesRecordsToSnapshotAndTrimsTheLog) {
  ScratchDir scratch("compact");
  const std::string path = scratch.path("s.qws");
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 0; i < 20; ++i) writer.append(test_record(i));
    writer.commit();
    const std::size_t before = slurp(path).size();
    writer.compact();
    EXPECT_EQ(writer.generation(), 2u);
    // The rewritten log holds only the magic + generation header: loading
    // now replays a 20-record snapshot plus an (empty) tail -- no rescan
    // of the original frames.
    EXPECT_LT(slurp(path).size(), before / 4);
    for (std::size_t i = 20; i < 30; ++i) writer.append(test_record(i));
    writer.commit();
  }
  const LoadedStore store = load_store(path);
  EXPECT_EQ(store.generation, 2u);
  EXPECT_EQ(store.snapshot_records, 20u);
  EXPECT_FALSE(store.pending_compaction);
  ASSERT_EQ(store.records.size(), 30u);
  EXPECT_EQ(store.low_water, 30u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(30));
}

TEST(WalStore, InterruptedCompactionHealsOnReopen) {
  ScratchDir scratch("healing");
  const std::string path = scratch.path("s.qws");
  write_store(path, 15);
  // Stage the crash window: the snapshot (generation 2) landed, the log
  // rewrite did not -- exactly what a kill between compact()'s two
  // durable steps leaves behind.
  write_snapshot_file(path + ".snap", test_header(), 2, test_records(15));

  const LoadedStore before = load_store(path);
  EXPECT_TRUE(before.pending_compaction);
  EXPECT_EQ(before.generation, 1u);
  ASSERT_EQ(before.records.size(), 15u);
  EXPECT_EQ(store_to_jsonl(before), expected_export(15));

  {
    StoreWriter writer(path, test_header());  // reopen completes the job
    EXPECT_EQ(writer.generation(), 2u);
  }
  const LoadedStore after = load_store(path);
  EXPECT_FALSE(after.pending_compaction);
  EXPECT_EQ(after.generation, 2u);
  EXPECT_EQ(after.snapshot_records, 15u);
  EXPECT_EQ(store_to_jsonl(after), expected_export(15));
}

TEST(WalStore, CompactedLogWithoutItsSnapshotIsFatal) {
  ScratchDir scratch("nosnap");
  const std::string path = scratch.path("s.qws");
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 0; i < 10; ++i) writer.append(test_record(i));
    writer.commit();
    writer.compact();
  }
  // Missing snapshot: the log alone cannot reconstruct the records.
  fs::remove(path + ".snap");
  EXPECT_THROW(load_store(path), CheckError);

  // Corrupt snapshot: same verdict (never silently drop 10 records).
  write_snapshot_file(path + ".snap", test_header(), 2, test_records(10));
  std::string snap = slurp(path + ".snap");
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x41);
  spit(path + ".snap", snap);
  EXPECT_THROW(load_store(path), CheckError);
}

TEST(WalStore, StaleSnapshotNextToAnUncompactedLogIsIgnored) {
  ScratchDir scratch("stalesnap");
  const std::string path = scratch.path("s.qws");
  write_store(path, 5);
  // A snapshot from some older world (generation 0 < log generation 1):
  // the log owes it nothing (base_records == 0), so it is ignored.
  write_snapshot_file(path + ".snap", test_header(), 0, test_records(3));
  const LoadedStore store = load_store(path);
  EXPECT_EQ(store.snapshot_records, 0u);
  ASSERT_EQ(store.records.size(), 5u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(5));
}

TEST(WalStore, AutoCompactionTriggersDuringCommits) {
  ScratchDir scratch("autocompact");
  const std::string path = scratch.path("s.qws");
  StoreOptions options;
  options.compact_every = 16;
  {
    StoreWriter writer(path, test_header(), options);
    for (std::size_t i = 0; i < 100; ++i) {
      writer.append(test_record(i));
      writer.commit();
    }
    EXPECT_GT(writer.generation(), 1u);
  }
  const LoadedStore store = load_store(path);
  EXPECT_GT(store.snapshot_records, 0u);
  ASSERT_EQ(store.records.size(), 100u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(100));
}

// A store is read only as a WAL.  An export's text at a store path is
// refused by the reader and the writer alike, and nothing is written: not
// the file, not a snapshot beside it.
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
  EXPECT_FALSE(fs::exists(path + ".snap"));
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

// Same for a snapshot: an intact checksum over a record count the file
// cannot hold makes the snapshot corrupt, so a log that owes it records
// is the usual "missing or corrupt" CheckError.
TEST(WalStore, SnapshotClaimingMoreRecordsThanItHoldsIsCorrupt) {
  ScratchDir scratch("liarsnap");
  const std::string path = scratch.path("s.qws");
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 0; i < 5; ++i) writer.append(test_record(i));
    writer.commit();
    writer.compact();
  }
  const std::string snap = slurp(path + ".snap");
  const StoreHeader h = test_header();
  // Past the magic, version, generation, spec hash, name and spec.
  const std::size_t count_at =
      4 + 4 + 8 + 8 + 4 + h.name.size() + 4 + h.spec_json.size();
  for (const std::uint64_t lie : {std::uint64_t{1} << 62,
                                  std::uint64_t{4000000000}}) {
    std::string forged = snap.substr(0, snap.size() - 4);
    std::string count;
    put_u64(count, lie);
    forged.replace(count_at, 8, count);
    put_u32(forged, crc32_of(forged.data() + 4, forged.size() - 4));
    spit(path + ".snap", forged);
    EXPECT_THROW(load_store(path), CheckError) << lie;
  }
}

// The writer holds only the frames the log lacks, so its memory does not
// grow with the log: 131,072 elect-shaped records (a ~30 MB log) appended
// with a commit every 4,096.
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
    EXPECT_EQ(compacted.snapshot_records, 18u);
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
  EXPECT_EQ(store.snapshot_records, 22u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(22));
}

// A re-run writes a key again; the log resolves it to the later record,
// and so must the snapshot that replaces the log.
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
    EXPECT_EQ(after.snapshot_records, 6u);
    EXPECT_EQ(writer.record_count(), 6u);
  }
}

// The group-commit hammer with compaction firing in the commit path while
// other threads append (the TSan target for compaction).
TEST(WalStore, ConcurrentAppendCommitAndAutoCompactionLoseNothing) {
  ScratchDir scratch("threadscompact");
  const std::string path = scratch.path("s.qws");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  StoreOptions options;
  options.compact_every = 64;
  {
    StoreWriter writer(path, test_header(), options);
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
    EXPECT_GT(writer.generation(), 1u);
    EXPECT_EQ(writer.record_count(), kThreads * kPerThread);
  }
  const LoadedStore store = load_store(path);
  EXPECT_GT(store.snapshot_records, 0u);
  EXPECT_EQ(store_to_jsonl(store), expected_export(kThreads * kPerThread));
}

// The WAL and snapshot bytes of a fixed single-thread sequence, pinned:
// the writer's internals may change, the files it writes may not.
TEST(WalStore, FileBytesArePinned) {
  ScratchDir scratch("pinned");
  const std::string path = scratch.path("s.qws");
  std::vector<std::uint64_t> hashes;
  // The pins were taken with the published FNV-1a 64 basis.
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  auto pin = [&] {
    hashes.push_back(util::fnv1a64(slurp(path), kBasis));
    hashes.push_back(util::fnv1a64(slurp(path + ".snap"), kBasis));
  };
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 0; i < 20; ++i) writer.append(test_record(i));
    writer.commit();
    writer.compact();
    pin();
    for (std::size_t i = 20; i < 30; ++i) writer.append(test_record(i));
    writer.commit();
  }
  {
    StoreWriter writer(path, test_header());
    for (std::size_t i = 30; i < 35; ++i) writer.append(test_record(i));
    writer.commit();
    writer.compact();
    pin();
  }
  EXPECT_EQ(hashes, (std::vector<std::uint64_t>{
                        0xa5889f2d010880c9ull, 0xd7fd6d192d1fe7c2ull,
                        0x23e9a75072912e48ull, 0xd13e06211d9fd7cdull}));
}

}  // namespace
}  // namespace qelect::campaign

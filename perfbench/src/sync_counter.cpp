// Counts durable syncs at the libc boundary.
//
// The probe defines fdatasync and fsync itself, so every call the
// statically linked qelect libraries make (the WAL's group commit, the
// parent-directory syncs on create and compaction) lands here first.  Each
// call is counted (store.syncs_per_task).
//
// The benchmark models a memory-backed store, whose sync costs only its
// system call: on a disk, one fdatasync costs a device flush that varies
// several-fold from run to run, and it would swamp every other cost of an
// elect sweep.  So a sync on tmpfs or ramfs is passed to the kernel, and a
// sync on any other file system is counted and skipped, which leaves the
// same cost as on tmpfs.  The run reports when that happened
// (store_syncs_elided); the benchmark never measures durability.
#include <linux/magic.h>
#include <sys/syscall.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <atomic>

#include "common.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_syncs{0};
std::atomic<bool> g_elided{false};

long counted_sync(int fd, long sysno) {
  g_syncs.fetch_add(1, std::memory_order_relaxed);
  struct statfs fs {};
  // An fd fstatfs cannot inspect goes to the kernel, which reports the
  // same error fdatasync itself would.
  const bool to_kernel = fstatfs(fd, &fs) != 0 || fs.f_type == TMPFS_MAGIC ||
                         fs.f_type == RAMFS_MAGIC;
  if (to_kernel) return syscall(sysno, fd);
  g_elided.store(true, std::memory_order_relaxed);
  return 0;
}

}  // namespace

std::uint64_t sync_calls() { return g_syncs.load(std::memory_order_relaxed); }
bool syncs_elided() { return g_elided.load(std::memory_order_relaxed); }

}  // namespace perfbench

extern "C" int fdatasync(int fd) {
  return static_cast<int>(perfbench::counted_sync(fd, SYS_fdatasync));
}

extern "C" int fsync(int fd) {
  return static_cast<int>(perfbench::counted_sync(fd, SYS_fsync));
}

// A certificate-cache stats() accessor with nothing to report.
//
// No certificate cache exists: core::surrounding_classes calls
// iso::canonical_certificate, and the plan caches in front of it
// (core::protocol_plan_shared, core::ElectBatchPlanCache) absorb the
// repeats.  perfbench's probe still reads CertificateCache::global().stats()
// and emits only the fields it finds, so this accessor returns a struct
// with none.
#pragma once

namespace qelect::iso {

class CertificateCache {
 public:
  struct Stats {};
  Stats stats() const { return {}; }

  static CertificateCache& global() {
    static CertificateCache cache;
    return cache;
  }
};

}  // namespace qelect::iso

#include "qelect/serve/protocol.hpp"

#include <cstring>
#include <string_view>

#include "qelect/util/hash.hpp"

namespace qelect::serve {

namespace {

// Defensive decode bounds: no legitimate request carries more.  They keep a
// hostile length prefix from turning into a giant allocation before the
// semantic validation in the service even runs.
constexpr std::size_t kMaxParams = 16;
constexpr std::size_t kMaxHomeBases = 1 << 16;
constexpr std::size_t kMaxString = 1 << 12;

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

bool known_opcode(std::uint16_t code) {
  return code >= static_cast<std::uint16_t>(Opcode::kPing) &&
         code <= static_cast<std::uint16_t>(Opcode::kStats);
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kElectable: return "electable";
    case Opcode::kSigma: return "sigma";
    case Opcode::kViewClasses: return "view-classes";
    case Opcode::kRunElect: return "run-elect";
    case Opcode::kStats: return "stats";
  }
  return "?";
}

std::optional<Opcode> opcode_from_name(const std::string& name) {
  for (std::uint16_t code = static_cast<std::uint16_t>(Opcode::kPing);
       known_opcode(code); ++code) {
    const Opcode op = static_cast<Opcode>(code);
    if (name == opcode_name(op)) return op;
  }
  return std::nullopt;
}

const char* status_name(std::uint32_t status) {
  switch (status) {
    case kStatusOk: return "ok";
    case kStatusBadRequest: return "bad-request";
    case kStatusUnknownOpcode: return "unknown-opcode";
    case kStatusTooLarge: return "too-large";
    case kStatusError: return "error";
  }
  return "?";
}

std::uint64_t payload_checksum(const std::uint8_t* data, std::size_t size) {
  return util::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), size));
}

std::vector<std::uint8_t> encode_frame(
    Opcode op, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  put_le(out, kMagic, 4);
  put_le(out, kVersion, 2);
  put_le(out, static_cast<std::uint16_t>(op), 2);
  put_le(out, request_id, 8);
  put_le(out, payload.size(), 4);
  put_le(out, payload_checksum(payload.data(), payload.size()), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

const char* decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
  }
  return "?";
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          FrameHeader* header,
                          std::vector<std::uint8_t>* payload,
                          std::size_t* consumed, std::size_t max_payload) {
  if (size < kHeaderSize) return DecodeStatus::kNeedMore;
  if (get_le(data, 4) != kMagic) return DecodeStatus::kBadMagic;
  FrameHeader h;
  h.version = static_cast<std::uint16_t>(get_le(data + 4, 2));
  h.opcode = static_cast<std::uint16_t>(get_le(data + 6, 2));
  h.request_id = get_le(data + 8, 8);
  h.payload_size = static_cast<std::uint32_t>(get_le(data + 16, 4));
  h.checksum = get_le(data + 20, 8);
  // The parsed header is handed back even on failure: kOversized callers
  // use the opcode/request id to send an error response before closing.
  *header = h;
  if (h.version != kVersion) return DecodeStatus::kBadVersion;
  // Checked from the header alone, before the payload is buffered.
  if (h.payload_size > max_payload) return DecodeStatus::kOversized;
  if (size < kHeaderSize + h.payload_size) return DecodeStatus::kNeedMore;
  const std::uint8_t* body = data + kHeaderSize;
  if (payload_checksum(body, h.payload_size) != h.checksum) {
    return DecodeStatus::kBadChecksum;
  }
  payload->assign(body, body + h.payload_size);
  *consumed = kHeaderSize + h.payload_size;
  return DecodeStatus::kOk;
}

// ---- payload cursor ------------------------------------------------------

void WireWriter::u16(std::uint16_t v) { put_le(buf_, v, 2); }
void WireWriter::u32(std::uint32_t v) { put_le(buf_, v, 4); }
void WireWriter::u64(std::uint64_t v) { put_le(buf_, v, 8); }

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool WireReader::take(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  if (!take(2)) return 0;
  const auto v = static_cast<std::uint16_t>(get_le(data_ + pos_, 2));
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (!take(4)) return 0;
  const auto v = static_cast<std::uint32_t>(get_le(data_ + pos_, 4));
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (!take(8)) return 0;
  const std::uint64_t v = get_le(data_ + pos_, 8);
  pos_ += 8;
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > kMaxString || !take(n)) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

// ---- requests ------------------------------------------------------------

void encode_instance(WireWriter& w, const InstanceRef& inst) {
  w.str(inst.family);
  w.u32(static_cast<std::uint32_t>(inst.params.size()));
  for (std::uint64_t p : inst.params) w.u64(p);
  w.u32(static_cast<std::uint32_t>(inst.home_bases.size()));
  for (std::uint32_t b : inst.home_bases) w.u32(b);
}

bool decode_instance(WireReader& r, InstanceRef* inst) {
  inst->family = r.str();
  const std::uint32_t params = r.u32();
  if (!r.ok() || params > kMaxParams) return false;
  inst->params.clear();
  for (std::uint32_t i = 0; i < params; ++i) inst->params.push_back(r.u64());
  const std::uint32_t bases = r.u32();
  if (!r.ok() || bases > kMaxHomeBases) return false;
  inst->home_bases.clear();
  for (std::uint32_t i = 0; i < bases; ++i) inst->home_bases.push_back(r.u32());
  return r.ok();
}

std::vector<std::uint8_t> encode_electable_request(const InstanceRef& inst) {
  WireWriter w;
  encode_instance(w, inst);
  return w.take();
}

std::vector<std::uint8_t> encode_sigma_request(const SigmaRequest& req) {
  WireWriter w;
  encode_instance(w, req.instance);
  w.u32(req.alphabet);
  return w.take();
}

std::vector<std::uint8_t> encode_view_classes_request(const InstanceRef& inst) {
  return encode_electable_request(inst);
}

std::vector<std::uint8_t> encode_run_elect_request(const RunElectRequest& req) {
  WireWriter w;
  encode_instance(w, req.instance);
  w.u64(req.seed);
  w.str(req.scheduler);
  // Trailing optional: omitted for the default so single-replica requests
  // are byte-identical to the pre-replica encoding (same cache keys, same
  // goldens).
  if (req.replicas != 1) w.u32(req.replicas);
  return w.take();
}

bool decode_electable_request(const std::vector<std::uint8_t>& payload,
                              InstanceRef* inst) {
  WireReader r(payload);
  return decode_instance(r, inst) && r.done();
}

bool decode_sigma_request(const std::vector<std::uint8_t>& payload,
                          SigmaRequest* req) {
  WireReader r(payload);
  if (!decode_instance(r, &req->instance)) return false;
  req->alphabet = r.u32();
  return r.done();
}

bool decode_run_elect_request(const std::vector<std::uint8_t>& payload,
                              RunElectRequest* req) {
  WireReader r(payload);
  if (!decode_instance(r, &req->instance)) return false;
  req->seed = r.u64();
  req->scheduler = r.str();
  req->replicas = 1;
  if (r.ok() && !r.done()) req->replicas = r.u32();
  return r.done() && req->replicas >= 1;
}

// ---- responses -----------------------------------------------------------

std::vector<std::uint8_t> encode_error_response(std::uint32_t status,
                                                const std::string& message) {
  WireWriter w;
  w.u32(status);
  w.str(message);
  return w.take();
}

bool decode_response_head(WireReader& r, ResponseHead* head) {
  head->status = r.u32();
  if (!r.ok()) return false;
  if (head->status != kStatusOk) {
    head->error = r.str();
    return r.ok();
  }
  return true;
}

bool decode_electable_response(const std::vector<std::uint8_t>& payload,
                               ElectableResponse* resp) {
  WireReader r(payload);
  if (!decode_response_head(r, &resp->head)) return false;
  if (resp->head.status != kStatusOk) return r.done();
  resp->electable = r.u8();
  resp->classification = r.u8();
  resp->final_gcd = r.u64();
  resp->nodes = r.u64();
  return r.done();
}

bool decode_sigma_response(const std::vector<std::uint8_t>& payload,
                           SigmaResponse* resp) {
  WireReader r(payload);
  if (!decode_response_head(r, &resp->head)) return false;
  if (resp->head.status != kStatusOk) return r.done();
  resp->sigma = r.u64();
  resp->alphabet = r.u32();
  resp->labelings = r.u64();
  return r.done();
}

bool decode_view_classes_response(const std::vector<std::uint8_t>& payload,
                                  ViewClassesResponse* resp) {
  WireReader r(payload);
  if (!decode_response_head(r, &resp->head)) return false;
  if (resp->head.status != kStatusOk) return r.done();
  resp->nodes = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > resp->nodes) return false;
  resp->classes.clear();
  for (std::uint32_t c = 0; c < count; ++c) {
    const std::uint32_t size = r.u32();
    if (!r.ok() || size > resp->nodes) return false;
    std::vector<std::uint32_t> members;
    members.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i) members.push_back(r.u32());
    resp->classes.push_back(std::move(members));
  }
  return r.done();
}

bool decode_run_elect_response(const std::vector<std::uint8_t>& payload,
                               RunElectResponse* resp) {
  WireReader r(payload);
  if (!decode_response_head(r, &resp->head)) return false;
  if (resp->head.status != kStatusOk) return r.done();
  resp->completed = r.u8();
  resp->clean_election = r.u8();
  resp->clean_failure = r.u8();
  resp->matches_oracle = r.u8();
  resp->final_gcd = r.u64();
  resp->moves = r.u64();
  resp->steps = r.u64();
  resp->replicas.clear();
  if (r.ok() && !r.done()) {
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > (1u << 20)) return false;
    resp->replicas.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ReplicaVerdict v;
      v.completed = r.u8();
      v.clean_election = r.u8();
      v.clean_failure = r.u8();
      v.matches_oracle = r.u8();
      v.final_gcd = r.u64();
      v.moves = r.u64();
      v.steps = r.u64();
      resp->replicas.push_back(v);
    }
  }
  return r.done();
}

bool decode_stats_response(const std::vector<std::uint8_t>& payload,
                           StatsResponse* resp) {
  WireReader r(payload);
  if (!decode_response_head(r, &resp->head)) return false;
  if (resp->head.status != kStatusOk) return r.done();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > (1u << 12)) return false;
  resp->counters.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = r.str();
    const std::uint64_t value = r.u64();
    resp->counters.emplace_back(std::move(key), value);
  }
  return r.done();
}

}  // namespace qelect::serve

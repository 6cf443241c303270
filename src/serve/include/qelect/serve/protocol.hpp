// qelectd wire protocol: length-prefixed, checksummed binary frames.
//
// Every message -- request or response -- is one frame:
//
//   offset  size  field
//        0     4  magic "QELP" (0x51454C50, little-endian u32)
//        4     2  protocol version (kVersion)
//        6     2  opcode (Opcode; responses echo the request's opcode)
//        8     8  request id (echoed verbatim in the response)
//       16     4  payload size in bytes (<= max_payload)
//       20     8  checksum of the payload bytes (util::fnv1a64)
//       28     n  payload
//
// All integers are little-endian.  The checksum covers only the payload
// (the header is fixed-size and validated field by field), so a torn or
// corrupted frame is detected before any payload field is decoded.
// decode_frame() is incremental: callers accumulate bytes in a buffer and
// retry on kNeedMore, which is how the server's per-connection read loop
// and the blocking client both parse the stream.  Any status other than
// kOk/kNeedMore is unrecoverable for the connection (framing is lost).
//
// Payloads are built with WireWriter and parsed with WireReader -- a
// bounds-checked cursor that latches an error instead of reading past the
// end, so a truncated or malformed payload surfaces as `!reader.ok()`,
// never as garbage values.  Response payloads always begin with a u32
// Status; kStatusOk is followed by the opcode-specific body, anything else
// by a human-readable error string.
//
// The opcode-level request/response structs below are shared by the
// service (decode requests, encode responses), the client, the `qelect
// query` CLI, the load generator, and the tests -- one encoding, five
// consumers.  docs/SERVING.md is the prose spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace qelect::serve {

inline constexpr std::uint32_t kMagic = 0x504C4551;  // "QELP" in LE bytes
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 28;
/// Default bound on a frame's payload.  Requests are tiny (an instance
/// spec); responses are bounded by VIEW_CLASSES on max_nodes nodes.
inline constexpr std::size_t kMaxPayload = 1 << 20;
/// Hard ceiling on one coalesced cross-request RUN_ELECT slab, whatever
/// the server's --coalesce-max says: a window must never accumulate an
/// unbounded batch (slab memory is O(replicas * nodes)).
inline constexpr std::uint32_t kMaxCoalesceSlab = 1024;

enum class Opcode : std::uint16_t {
  kPing = 1,         // liveness probe; empty payload both ways
  kElectable = 2,    // feasibility verdict for (G, p)
  kSigma = 3,        // exhaustive symmetricity sigma(G, p)
  kViewClasses = 4,  // ~view classes of (G, p) under the port labeling
  kRunElect = 5,     // one seeded live ELECT run (campaign-identical)
  kStats = 6,        // server/cache/pool counters; empty request payload
};

bool known_opcode(std::uint16_t code);
const char* opcode_name(Opcode op);
/// Parses the lowercase CLI spelling ("electable", "view-classes", ...).
std::optional<Opcode> opcode_from_name(const std::string& name);

/// Response status (first u32 of every response payload).
enum Status : std::uint32_t {
  kStatusOk = 0,
  kStatusBadRequest = 1,     // malformed payload / invalid instance
  kStatusUnknownOpcode = 2,  // frame was valid, opcode is not
  kStatusTooLarge = 3,       // instance exceeds the server's compute bounds
  kStatusError = 4,          // execution failed (library CheckError etc.)
};
const char* status_name(std::uint32_t status);

struct FrameHeader {
  std::uint16_t version = kVersion;
  std::uint16_t opcode = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
  std::uint64_t checksum = 0;
};

/// util::fnv1a64 over the payload bytes (the frame checksum).  Its basis
/// is not the published FNV-1a 64 one (see qelect/util/hash.hpp).
std::uint64_t payload_checksum(const std::uint8_t* data, std::size_t size);

/// One complete frame: header (with computed checksum) + payload.
std::vector<std::uint8_t> encode_frame(Opcode op, std::uint64_t request_id,
                                       const std::vector<std::uint8_t>& payload);

enum class DecodeStatus {
  kOk,           // one frame decoded; `*consumed` bytes eaten
  kNeedMore,     // prefix of a valid frame; read more bytes and retry
  kBadMagic,     // not a frame boundary: connection framing is lost
  kBadVersion,   // peer speaks a different protocol revision
  kOversized,    // declared payload exceeds max_payload
  kBadChecksum,  // payload bytes do not match the header checksum
};
const char* decode_status_name(DecodeStatus status);

/// Attempts to decode one frame from data[0..size).  On kOk fills header,
/// payload, and consumed.  On kNeedMore nothing is consumed.  kOversized is
/// detected from the header alone (before buffering the payload), which is
/// the server's guard against memory-exhaustion frames.
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          FrameHeader* header,
                          std::vector<std::uint8_t>* payload,
                          std::size_t* consumed,
                          std::size_t max_payload = kMaxPayload);

// ---- payload cursor ------------------------------------------------------

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void str(const std::string& s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader: the first out-of-range or oversized read latches
/// `ok() == false` and every later read returns 0/"" without advancing.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();

  bool ok() const { return ok_; }
  /// True when every byte was consumed and no read failed.
  bool done() const { return ok_ && pos_ == size_; }

 private:
  bool take(std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- requests ------------------------------------------------------------

/// The instance every query is parameterized on: a graph family reference
/// (same vocabulary as campaign::GraphRef -- "ring", "hypercube", ...) plus
/// the home-base placement.  SIGMA/VIEW_CLASSES accept an empty placement
/// (all-white bi-coloring); ELECTABLE/RUN_ELECT require agents.
struct InstanceRef {
  std::string family;
  std::vector<std::uint64_t> params;
  std::vector<std::uint32_t> home_bases;
};

void encode_instance(WireWriter& w, const InstanceRef& inst);
/// Returns false (without touching `inst`'s validity) on a malformed or
/// truncated encoding; also caps params/home_bases counts defensively.
bool decode_instance(WireReader& r, InstanceRef* inst);

struct SigmaRequest {
  InstanceRef instance;
  std::uint32_t alphabet = 0;  // 0 = max degree of the built graph
};

struct RunElectRequest {
  InstanceRef instance;
  std::uint64_t seed = 1;            // color seed AND scheduler seed, as in
                                     // campaign elect tasks
  std::string scheduler = "random";  // random | round-robin | lockstep |
                                     // counter
  /// Replicas to run in one request.  1 (the default, and the only value a
  /// pre-replica client can express -- the field is a trailing optional on
  /// the wire) is the campaign-identical scalar path.  > 1 requires the
  /// "counter" scheduler and routes the burst through the batch backend:
  /// replica i runs the counter stream keyed (seed, i).
  std::uint32_t replicas = 1;
};

std::vector<std::uint8_t> encode_electable_request(const InstanceRef& inst);
std::vector<std::uint8_t> encode_sigma_request(const SigmaRequest& req);
std::vector<std::uint8_t> encode_view_classes_request(const InstanceRef& inst);
std::vector<std::uint8_t> encode_run_elect_request(const RunElectRequest& req);

bool decode_electable_request(const std::vector<std::uint8_t>& payload,
                              InstanceRef* inst);
bool decode_sigma_request(const std::vector<std::uint8_t>& payload,
                          SigmaRequest* req);
bool decode_run_elect_request(const std::vector<std::uint8_t>& payload,
                              RunElectRequest* req);

// ---- responses -----------------------------------------------------------

/// Common prefix of every decoded response.  When `status != kStatusOk`,
/// `error` holds the server's message and the body fields are meaningless.
struct ResponseHead {
  std::uint32_t status = kStatusOk;
  std::string error;
};

struct ElectableResponse {
  ResponseHead head;
  std::uint8_t electable = 0;      // 1 iff ELECT elects (gcd == 1)
  std::uint8_t classification = 0; // campaign landscape code (0..4)
  std::uint64_t final_gcd = 0;
  std::uint64_t nodes = 0;
};

struct SigmaResponse {
  ResponseHead head;
  std::uint64_t sigma = 0;
  std::uint32_t alphabet = 0;    // alphabet actually used
  std::uint64_t labelings = 0;   // labelings enumerated for the max
};

struct ViewClassesResponse {
  ResponseHead head;
  std::uint64_t nodes = 0;
  std::vector<std::vector<std::uint32_t>> classes;
};

/// One replica's verdict inside a multi-replica RUN_ELECT response.
struct ReplicaVerdict {
  std::uint8_t completed = 0;
  std::uint8_t clean_election = 0;
  std::uint8_t clean_failure = 0;
  std::uint8_t matches_oracle = 0;
  std::uint64_t final_gcd = 0;
  std::uint64_t moves = 0;
  std::uint64_t steps = 0;

  bool operator==(const ReplicaVerdict&) const = default;
};

struct RunElectResponse {
  ResponseHead head;
  /// Replica 0's verdict (the whole answer for a single-replica request,
  /// so pre-replica clients decode responses unchanged).
  std::uint8_t completed = 0;
  std::uint8_t clean_election = 0;
  std::uint8_t clean_failure = 0;
  std::uint8_t matches_oracle = 0;
  std::uint64_t final_gcd = 0;
  std::uint64_t moves = 0;
  std::uint64_t steps = 0;
  /// Per-replica verdicts, present (size == request.replicas, entry 0
  /// duplicating the fields above) only for multi-replica requests.
  std::vector<ReplicaVerdict> replicas;
};

struct StatsResponse {
  ResponseHead head;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Error/OK-prefix helpers shared by service and tests.
std::vector<std::uint8_t> encode_error_response(std::uint32_t status,
                                                const std::string& message);

bool decode_response_head(WireReader& r, ResponseHead* head);
bool decode_electable_response(const std::vector<std::uint8_t>& payload,
                               ElectableResponse* resp);
bool decode_sigma_response(const std::vector<std::uint8_t>& payload,
                           SigmaResponse* resp);
bool decode_view_classes_response(const std::vector<std::uint8_t>& payload,
                                  ViewClassesResponse* resp);
bool decode_run_elect_response(const std::vector<std::uint8_t>& payload,
                               RunElectResponse* resp);
bool decode_stats_response(const std::vector<std::uint8_t>& payload,
                           StatsResponse* resp);

}  // namespace qelect::serve

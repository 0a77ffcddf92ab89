// Wire framing for the real (socket) transport backend.
//
// Every byte that crosses a TCP or Unix-domain connection is one frame: a
// fixed 40-byte little-endian header followed by `body_len` payload bytes.
// The header carries source/destination node ids, a per-connection sequence
// number, and an optional FNV-1a-64 checksum over the body, so a receiver
// can reject truncated or corrupted frames *before* any payload bytes reach
// the deserializers that rehydrate agents. Decoding returns typed status
// codes — never exceptions — because on a real wire a bad frame is an
// expected event, not a programming error.
//
// Layout (offsets in bytes, all little-endian):
//   0  u32  magic      "MRPC" (0x4352504D)
//   4  u16  version    kVersion
//   6  u16  type       FrameType
//   8  u16  flags      FrameFlags bitmask
//  10  u16  incarnation  sender's reincarnation count (0 = first life)
//  12  u32  src        sending node id (kControlNode for harness clients)
//  16  u32  dst        destination node id
//  20  u64  seq        sender-assigned sequence number
//  28  u32  body_len   payload bytes following the header
//  32  u64  checksum   FNV-1a-64 over the body (0 unless kFlagChecksum)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/message.hpp"
#include "serial/byte_buffer.hpp"

namespace marp::rpc {

constexpr std::uint32_t kMagic = 0x4352504D;  // "MRPC" on a little-endian wire
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderSize = 40;

/// Refuse to allocate for absurd frames (a corrupt length field must not
/// drive a multi-gigabyte read buffer).
constexpr std::uint32_t kMaxBodyLen = 32u * 1024u * 1024u;

/// Node id used by harness/control clients that are not cluster members.
constexpr net::NodeId kControlNode = 0xFFFFFFF0u;

enum class FrameType : std::uint16_t {
  AppMessage = 1,     ///< a net::Message between two MARP servers/agents
  AgentTransfer = 2,  ///< a serialized mobile agent migrating between nodes
  ControlRequest = 3, ///< harness → node RPC (req_header + marshalled args)
  ControlReply = 4,   ///< node → harness RPC reply (reply_header + result)
  AgentTransferAck = 5, ///< receiver → sender: transfer token was adopted
  Announce = 6,       ///< reincarnated node → peers: (node, incarnation) rejoin
};

enum FrameFlags : std::uint16_t {
  kFlagChecksum = 1 << 0,  ///< `checksum` covers the body
  kFlagTrace = 1 << 1,     ///< body ends with a kTraceContextSize trace tail
};

/// Distributed-tracing context piggybacked on a frame. When kFlagTrace is
/// set, the last kTraceContextSize bytes of the body are this struct in
/// fixed-width little-endian layout; the checksum covers the tail like any
/// other body byte, so a corrupted context is rejected as ChecksumMismatch
/// before it can mislead the trace merge. The header stays 40 bytes and a
/// receiver that predates tracing still verifies the checksum correctly —
/// it only sees a body with 28 opaque trailing bytes.
///
/// Layout (offsets within the tail, little-endian):
///   0  u64  session_id  stable id shared by all spans of one update session
///   8  u64  span_id     sender-side span the receiver's work continues
///  16  u32  origin      node id of the sender that stamped this context
///  20  i64  send_ts_us  sender trace-clock microseconds at stamping time
struct TraceContext {
  std::uint64_t session_id = 0;
  std::uint64_t span_id = 0;
  net::NodeId origin = net::kInvalidNode;
  std::int64_t send_ts_us = 0;

  bool operator==(const TraceContext&) const = default;
};

constexpr std::size_t kTraceContextSize = 28;

struct FrameHeader {
  std::uint16_t type = 0;
  std::uint16_t flags = 0;
  /// Sender's reincarnation count. Lives in the previously-reserved header
  /// slot (written as 0 before PR 7), so old and new frames stay
  /// wire-compatible: a frame from a first-life node simply carries 0.
  /// Receivers fence frames whose incarnation is below the highest one they
  /// have seen from that node — a late frame from a dead incarnation must
  /// not leak into the reborn cluster state.
  std::uint16_t incarnation = 0;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  std::uint64_t seq = 0;
  std::uint32_t body_len = 0;
  std::uint64_t checksum = 0;
};

struct Frame {
  FrameHeader header;
  serial::Bytes body;
  /// Present when the sender stamped a kFlagTrace tail; stripped off `body`
  /// during decode so payload codecs never see the trace bytes.
  std::optional<TraceContext> trace;
  /// Receiver trace-clock microseconds when the frame left the wire. Not a
  /// wire field — filled in by the receiving transport, -1 when untraced.
  std::int64_t recv_ts_us = -1;

  FrameType type() const noexcept { return static_cast<FrameType>(header.type); }
};

/// Typed decode outcome — the "error return" side of the wire boundary.
enum class DecodeStatus : std::uint8_t {
  Ok,
  Truncated,         ///< fewer bytes than the header (or body_len) announces
  BadMagic,
  BadVersion,
  BadLength,         ///< body_len > kMaxBodyLen
  ChecksumMismatch,
  BadTrace,          ///< kFlagTrace set but body shorter than the trace tail
};

const char* decode_status_name(DecodeStatus status) noexcept;

/// FNV-1a 64-bit over `size` bytes.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) noexcept;

/// Serialize header + body into one contiguous byte vector. When
/// `with_checksum`, the header's checksum field is filled from the body.
/// When `trace` is non-null, the kTraceContextSize tail is appended to the
/// body (covered by the checksum) and kFlagTrace is set.
serial::Bytes encode_frame(FrameType type, net::NodeId src, net::NodeId dst,
                           std::uint64_t seq, const serial::Bytes& body,
                           bool with_checksum = true,
                           std::uint16_t incarnation = 0,
                           const TraceContext* trace = nullptr);

/// Fixed-width little-endian trace-tail codec.
serial::Bytes encode_trace_context(const TraceContext& context);
/// Returns false (leaving `out` untouched) unless `size` is exactly
/// kTraceContextSize.
bool decode_trace_context(const std::uint8_t* data, std::size_t size,
                          TraceContext* out);

/// Strip a kFlagTrace tail off `frame->body` into `frame->trace`. No-op Ok
/// when the flag is clear; BadTrace when the flag is set but the body is too
/// short to contain the tail. Call after checksum verification — the tail is
/// ordinary body bytes on the wire.
DecodeStatus extract_trace_context(Frame* frame);

/// Parse a header from exactly kHeaderSize bytes. Returns Truncated /
/// BadMagic / BadVersion / BadLength without touching `out` payload state.
DecodeStatus decode_header(const std::uint8_t* data, std::size_t size,
                           FrameHeader* out);

/// Verify `body` (already read off the wire) against a decoded header.
DecodeStatus verify_body(const FrameHeader& header, const std::uint8_t* body,
                         std::size_t size);

/// Whole-buffer convenience used by tests and the in-process transport:
/// header decode + body slice + checksum verify in one call.
DecodeStatus decode_frame(const serial::Bytes& buffer, Frame* out);

/// Incremental decoder for a byte stream of frames: the one framing
/// implementation behind the node's receive loop and the control client.
/// Bytes go in through append(), or prepare()/commit() to recv straight into
/// the buffer; next() cuts one frame at a time and reports what
/// decode_frame reports for the same bytes:
///
///   Ok                  `out` holds the frame (trace tail stripped)
///   Truncated           no whole frame buffered yet: feed more bytes
///   ChecksumMismatch,   that frame is consumed and dropped; the stream
///   BadTrace            stays aligned
///   BadMagic, BadVersion, the stream is desynchronised: this and every
///   BadLength           later call return the same status
///
/// A header's body_len is checked against kMaxBodyLen before any of the
/// body is awaited, and the buffer only ever grows by bytes received.
class FrameStream {
 public:
  /// Room for at least `n` more bytes. The pointer is valid until the next
  /// call of any other member.
  std::uint8_t* prepare(std::size_t n);
  /// Mark `n` bytes written at prepare()'s pointer as received.
  void commit(std::size_t n);
  void append(const std::uint8_t* data, std::size_t size);

  DecodeStatus next(Frame* out);

  /// Bytes received but not yet cut into frames.
  std::size_t buffered() const noexcept { return end_ - begin_; }

 private:
  serial::Bytes buffer_;  ///< [begin_, end_) is unread; the rest is room
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  DecodeStatus failed_ = DecodeStatus::Ok;  ///< first header error, sticky
};

// ---- payload marshalling (built on serial::Writer/Reader) ----

/// AppMessage body: [varint message-type][length-prefixed payload].
serial::Bytes encode_app_body(const net::Message& message);
/// Rebuilds the message; src/dst come from the frame header. Throws
/// serial::DecodeError subclasses on malformed bodies (callers at the wire
/// boundary catch and drop).
net::Message decode_app_body(const FrameHeader& header, const serial::Bytes& body);

/// AgentTransfer body: [u64le transfer-token][length-prefixed agent frame].
/// The token names one migration attempt, so the receiver can acknowledge
/// exactly what it adopted and the sender can cancel that attempt's revival
/// timer — a write accepted by the kernel is not a delivery.
struct TransferBody {
  std::uint64_t token = 0;
  serial::Bytes frame;
};
serial::Bytes encode_transfer_body(std::uint64_t token, const serial::Bytes& frame);
/// Throws serial::DecodeError subclasses on malformed bodies.
TransferBody decode_transfer_body(const serial::Bytes& body);

/// AgentTransferAck body: [u64le transfer-token].
serial::Bytes encode_transfer_ack_body(std::uint64_t token);
/// Throws serial::DecodeError subclasses on malformed bodies.
std::uint64_t decode_transfer_ack_body(const serial::Bytes& body);

/// Announce body: [varint node][varint incarnation]. A reincarnated node
/// broadcasts this to every peer before catching up, so peers raise their
/// incarnation floor for the sender promptly (frames from higher
/// incarnations raise it implicitly as they arrive).
struct AnnounceBody {
  net::NodeId node = net::kInvalidNode;
  std::uint16_t incarnation = 0;
};
serial::Bytes encode_announce_body(const AnnounceBody& announce);
/// Throws serial::DecodeError subclasses on malformed bodies.
AnnounceBody decode_announce_body(const serial::Bytes& body);

}  // namespace marp::rpc

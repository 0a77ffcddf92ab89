#include "rpc/frame.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace marp::rpc {

const char* decode_status_name(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::Ok: return "ok";
    case DecodeStatus::Truncated: return "truncated";
    case DecodeStatus::BadMagic: return "bad-magic";
    case DecodeStatus::BadVersion: return "bad-version";
    case DecodeStatus::BadLength: return "bad-length";
    case DecodeStatus::ChecksumMismatch: return "checksum-mismatch";
    case DecodeStatus::BadTrace: return "bad-trace";
  }
  return "?";
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

serial::Bytes encode_frame(FrameType type, net::NodeId src, net::NodeId dst,
                           std::uint64_t seq, const serial::Bytes& body,
                           bool with_checksum, std::uint16_t incarnation,
                           const TraceContext* trace) {
  serial::Bytes wire_body = body;
  std::uint16_t flags = with_checksum ? kFlagChecksum : 0;
  if (trace != nullptr) {
    const serial::Bytes tail = encode_trace_context(*trace);
    wire_body.insert(wire_body.end(), tail.begin(), tail.end());
    flags |= kFlagTrace;
  }
  serial::Writer w;
  w.u32le(kMagic);
  w.u16le(kVersion);
  w.u16le(static_cast<std::uint16_t>(type));
  w.u16le(flags);
  w.u16le(incarnation);
  w.u32le(src);
  w.u32le(dst);
  w.u64le(seq);
  w.u32le(static_cast<std::uint32_t>(wire_body.size()));
  w.u64le(with_checksum ? fnv1a64(wire_body.data(), wire_body.size()) : 0);
  serial::Bytes out = w.take();
  out.insert(out.end(), wire_body.begin(), wire_body.end());
  return out;
}

serial::Bytes encode_trace_context(const TraceContext& context) {
  serial::Writer w;
  w.u64le(context.session_id);
  w.u64le(context.span_id);
  w.u32le(context.origin);
  w.u64le(static_cast<std::uint64_t>(context.send_ts_us));
  return w.take();
}

bool decode_trace_context(const std::uint8_t* data, std::size_t size,
                          TraceContext* out) {
  if (size != kTraceContextSize) return false;
  serial::Reader r(data, size);
  TraceContext context;
  context.session_id = r.u64le();
  context.span_id = r.u64le();
  context.origin = r.u32le();
  context.send_ts_us = static_cast<std::int64_t>(r.u64le());
  *out = context;
  return true;
}

DecodeStatus extract_trace_context(Frame* frame) {
  if ((frame->header.flags & kFlagTrace) == 0) return DecodeStatus::Ok;
  if (frame->body.size() < kTraceContextSize) return DecodeStatus::BadTrace;
  TraceContext context;
  const std::size_t tail = frame->body.size() - kTraceContextSize;
  if (!decode_trace_context(frame->body.data() + tail, kTraceContextSize,
                            &context)) {
    return DecodeStatus::BadTrace;
  }
  frame->trace = context;
  frame->body.resize(tail);
  return DecodeStatus::Ok;
}

DecodeStatus decode_header(const std::uint8_t* data, std::size_t size,
                           FrameHeader* out) {
  if (size < kHeaderSize) return DecodeStatus::Truncated;
  serial::Reader r(data, kHeaderSize);
  if (r.u32le() != kMagic) return DecodeStatus::BadMagic;
  if (r.u16le() != kVersion) return DecodeStatus::BadVersion;
  FrameHeader h;
  h.type = r.u16le();
  h.flags = r.u16le();
  h.incarnation = r.u16le();
  h.src = r.u32le();
  h.dst = r.u32le();
  h.seq = r.u64le();
  h.body_len = r.u32le();
  h.checksum = r.u64le();
  if (h.body_len > kMaxBodyLen) return DecodeStatus::BadLength;
  *out = h;
  return DecodeStatus::Ok;
}

DecodeStatus verify_body(const FrameHeader& header, const std::uint8_t* body,
                         std::size_t size) {
  if (size < header.body_len) return DecodeStatus::Truncated;
  if ((header.flags & kFlagChecksum) != 0 &&
      fnv1a64(body, header.body_len) != header.checksum) {
    return DecodeStatus::ChecksumMismatch;
  }
  return DecodeStatus::Ok;
}

namespace {

/// decode_frame over raw bytes. Whenever the header is sane, `*frame_size`
/// is the frame's length on the wire, so a stream can step past it.
DecodeStatus decode_first(const std::uint8_t* data, std::size_t size, Frame* out,
                          std::size_t* frame_size) {
  FrameHeader header;
  const DecodeStatus hs = decode_header(data, size, &header);
  if (hs != DecodeStatus::Ok) return hs;
  *frame_size = kHeaderSize + header.body_len;
  const std::uint8_t* body = data + kHeaderSize;
  const DecodeStatus bs = verify_body(header, body, size - kHeaderSize);
  if (bs != DecodeStatus::Ok) return bs;
  out->header = header;
  out->body.assign(body, body + header.body_len);
  out->trace.reset();
  out->recv_ts_us = -1;
  return extract_trace_context(out);
}

/// A stream buffer that grew past this for one big frame is released once
/// drained, so a single large transfer does not pin its memory.
constexpr std::size_t kKeepBufferBytes = 1u << 20;

}  // namespace

DecodeStatus decode_frame(const serial::Bytes& buffer, Frame* out) {
  std::size_t frame_size = 0;
  return decode_first(buffer.data(), buffer.size(), out, &frame_size);
}

std::uint8_t* FrameStream::prepare(std::size_t n) {
  if (buffer_.size() - end_ < n) {
    if (begin_ > 0) {  // slide the unread bytes to the front before growing
      std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(begin_),
                buffer_.begin() + static_cast<std::ptrdiff_t>(end_), buffer_.begin());
      end_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() - end_ < n) buffer_.resize(end_ + n);
  }
  return buffer_.data() + end_;
}

void FrameStream::commit(std::size_t n) {
  MARP_REQUIRE(n <= buffer_.size() - end_);
  end_ += n;
}

void FrameStream::append(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  std::copy(data, data + size, prepare(size));
  commit(size);
}

DecodeStatus FrameStream::next(Frame* out) {
  if (failed_ != DecodeStatus::Ok) return failed_;
  std::size_t frame_size = 0;
  const DecodeStatus status =
      decode_first(buffer_.data() + begin_, end_ - begin_, out, &frame_size);
  switch (status) {
    case DecodeStatus::Truncated:
      return status;
    case DecodeStatus::BadMagic:
    case DecodeStatus::BadVersion:
    case DecodeStatus::BadLength:
      failed_ = status;
      return status;
    case DecodeStatus::Ok:
    case DecodeStatus::ChecksumMismatch:
    case DecodeStatus::BadTrace:
      break;
  }
  begin_ += frame_size;
  if (begin_ == end_) {
    begin_ = end_ = 0;
    if (buffer_.size() > kKeepBufferBytes) serial::Bytes().swap(buffer_);
  }
  return status;
}

serial::Bytes encode_app_body(const net::Message& message) {
  serial::Writer w;
  w.varint(message.type);
  w.raw(message.payload);
  return w.take();
}

net::Message decode_app_body(const FrameHeader& header, const serial::Bytes& body) {
  serial::Reader r(body);
  net::Message message;
  message.src = header.src;
  message.dst = header.dst;
  message.type = static_cast<net::MessageType>(r.varint());
  message.payload = r.raw();
  if (!r.at_end()) throw serial::MalformedError("trailing bytes after app message");
  return message;
}

serial::Bytes encode_transfer_body(std::uint64_t token, const serial::Bytes& frame) {
  serial::Writer w;
  w.u64le(token);
  w.raw(frame);
  return w.take();
}

TransferBody decode_transfer_body(const serial::Bytes& body) {
  serial::Reader r(body);
  TransferBody transfer;
  transfer.token = r.u64le();
  transfer.frame = r.raw();
  if (!r.at_end()) throw serial::MalformedError("trailing bytes after agent transfer");
  return transfer;
}

serial::Bytes encode_transfer_ack_body(std::uint64_t token) {
  serial::Writer w;
  w.u64le(token);
  return w.take();
}

std::uint64_t decode_transfer_ack_body(const serial::Bytes& body) {
  serial::Reader r(body);
  const std::uint64_t token = r.u64le();
  if (!r.at_end()) throw serial::MalformedError("trailing bytes after transfer ack");
  return token;
}

serial::Bytes encode_announce_body(const AnnounceBody& announce) {
  serial::Writer w;
  w.varint(announce.node);
  w.varint(announce.incarnation);
  return w.take();
}

AnnounceBody decode_announce_body(const serial::Bytes& body) {
  serial::Reader r(body);
  AnnounceBody announce;
  announce.node = static_cast<net::NodeId>(r.varint());
  announce.incarnation = static_cast<std::uint16_t>(r.varint());
  if (!r.at_end()) throw serial::MalformedError("trailing bytes after announce");
  return announce;
}

}  // namespace marp::rpc

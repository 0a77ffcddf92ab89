#include "transport/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include "trace/counters.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::transport {

namespace {

/// Keep at most this many latency samples per link; enough for stable
/// percentiles without unbounded growth on long-lived clusters.
constexpr std::size_t kMaxLinkSamples = 8192;
/// Outstanding transfer-token cap for RTT matching.
constexpr std::size_t kMaxPendingRtt = 1024;

void export_quantiles(trace::CounterRegistry& registry, const std::string& prefix,
                      std::vector<std::int64_t> samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  const auto at = [&samples](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, samples[i]));
  };
  registry.set(prefix + ".count", samples.size());
  registry.set(prefix + ".p50_us", at(0.50));
  registry.set(prefix + ".p90_us", at(0.90));
  registry.set(prefix + ".p99_us", at(0.99));
  registry.set(prefix + ".max_us",
               static_cast<std::uint64_t>(std::max<std::int64_t>(0, samples.back())));
}

// Raw socket helpers. All sockets are blocking; reader tasks park in
// recv() and are unblocked by shutdown(fd) at stop time.

int open_listener(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::Uds) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof(addr.sun_path)) return -1;
    std::strncpy(addr.sun_path, endpoint.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    ::unlink(endpoint.path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_once(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::Uds) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof(addr.sun_path)) return -1;
    std::strncpy(addr.sun_path, endpoint.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Write the whole buffer; EPIPE instead of SIGPIPE.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `size` bytes; false on EOF/error.
bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, data + done, size - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one whole frame off `fd`. Returns Ok and fills `out`, or the decode
/// status that killed it (Truncated doubles as EOF/IO error).
rpc::DecodeStatus read_frame(int fd, rpc::Frame* out) {
  std::uint8_t header_bytes[rpc::kHeaderSize];
  if (!read_all(fd, header_bytes, rpc::kHeaderSize)) {
    return rpc::DecodeStatus::Truncated;
  }
  rpc::FrameHeader header;
  const rpc::DecodeStatus hs =
      rpc::decode_header(header_bytes, rpc::kHeaderSize, &header);
  if (hs != rpc::DecodeStatus::Ok) return hs;
  serial::Bytes body(header.body_len);
  if (header.body_len > 0 && !read_all(fd, body.data(), body.size())) {
    return rpc::DecodeStatus::Truncated;
  }
  const rpc::DecodeStatus bs = rpc::verify_body(header, body.data(), body.size());
  if (bs != rpc::DecodeStatus::Ok) return bs;
  out->header = header;
  out->body = std::move(body);
  return rpc::DecodeStatus::Ok;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      loss_rng_(config_.loss_seed),
      backoff_rng_(config_.connect_jitter_seed ^
                   (0x9E3779B97F4A7C15ULL * (config_.local + 1))) {
  MARP_REQUIRE(config_.local < config_.peers.size());
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::start(Receiver receiver) {
  MARP_REQUIRE_MSG(!running_.load(), "transport already started");
  receiver_ = std::move(receiver);
  listen_fd_.store(open_listener(config_.peers[config_.local]));
  MARP_ENSURE_MSG(listen_fd_.load() >= 0,
                  "cannot listen on " + config_.peers[config_.local].to_string());
  const std::size_t threads = config_.reader_threads != 0
                                  ? config_.reader_threads
                                  : config_.peers.size() + 8;
  pool_ = std::make_unique<ThreadPool>(threads);
  running_.store(true);
  accept_done_ = pool_->submit([this] { accept_loop(); });
}

void SocketTransport::stop() {
  if (!running_.exchange(false)) return;
  // Wake accept() and every parked reader, but only shutdown() descriptors
  // another task is still reading: the reader closes its own conn when its
  // loop exits, so an fd number can never be recycled under a concurrent
  // recv(). Outbound conns have no reader and are closed here.
  const int listen_fd = listen_fd_.load();
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  // The accept task may be registering a connection it has just accepted
  // and submitting its reader: let it finish before sweeping the inbound
  // connections and tearing the pool down.
  if (accept_done_.valid()) accept_done_.wait();
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    for (const ConnPtr& conn : inbound_conns_) shutdown_conn(conn);
  }
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    for (auto& [node, conn] : peer_conns_) close_conn(conn);
    peer_conns_.clear();
  }
  pool_.reset();  // joins accept/reader tasks (readers close their conns)
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    inbound_conns_.clear();
  }
  if (config_.peers[config_.local].kind == Endpoint::Kind::Uds) {
    ::unlink(config_.peers[config_.local].path.c_str());
  }
}

void SocketTransport::close_conn(const ConnPtr& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  const int fd = conn->fd.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void SocketTransport::shutdown_conn(const ConnPtr& conn) {
  const int fd = conn->fd.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

SocketTransport::ConnPtr SocketTransport::peer_conn(net::NodeId dst) {
  if (dst >= config_.peers.size()) return nullptr;
  for (int attempt = 0; attempt < config_.connect_attempts; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(peers_mutex_);
      const auto it = peer_conns_.find(dst);
      if (it != peer_conns_.end() && it->second->fd.load() >= 0) return it->second;
    }
    if (!running_.load()) return nullptr;
    // Dial with peers_mutex_ released: the connect-retry schedule can take
    // seconds, and holding the map lock across it would stall every send to
    // healthy peers (and stop()) behind one unreachable node.
    const int fd = connect_once(config_.peers[dst]);
    if (fd >= 0) {
      std::lock_guard<std::mutex> lock(peers_mutex_);
      if (!running_.load()) {  // stop() swept the map while we dialed
        ::close(fd);
        return nullptr;
      }
      const auto it = peer_conns_.find(dst);
      if (it != peer_conns_.end() && it->second->fd.load() >= 0) {
        ::close(fd);  // lost a dial race; use the established conn
        return it->second;
      }
      auto conn = std::make_shared<Conn>();
      conn->fd.store(fd);
      peer_conns_[dst] = conn;
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.connects;
      }
      return conn;
    }
    // Capped exponential backoff with seeded jitter: early attempts catch a
    // peer that is just (re)starting quickly; later ones settle at the cap,
    // and the [0.5, 1.0) factor keeps a fleet of senders from re-dialing a
    // reincarnating node in lock-step.
    auto wait = config_.connect_backoff;
    for (int i = 0; i < attempt && wait < config_.connect_backoff_cap; ++i) {
      wait *= 2;
    }
    wait = std::min(wait, config_.connect_backoff_cap);
    double jitter;
    {
      std::lock_guard<std::mutex> lock(backoff_mutex_);
      jitter = std::uniform_real_distribution<double>(0.5, 1.0)(backoff_rng_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      static_cast<double>(wait.count()) * jitter))));
  }
  return nullptr;
}

void SocketTransport::drop_peer_conn(net::NodeId dst, const ConnPtr& conn) {
  close_conn(conn);
  std::lock_guard<std::mutex> lock(peers_mutex_);
  const auto it = peer_conns_.find(dst);
  if (it != peer_conns_.end() && it->second == conn) peer_conns_.erase(it);
}

bool SocketTransport::send_frame(net::NodeId dst, rpc::FrameType type,
                                 const serial::Bytes& body,
                                 std::uint64_t trace_session) {
  const std::uint64_t seq = seq_.fetch_add(1) + 1;
  rpc::TraceContext trace;
  const rpc::TraceContext* trace_ptr = nullptr;
  if (trace_enabled_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    if (trace_clock_) {
      trace.session_id = trace_session;
      trace.span_id = seq;
      trace.origin = config_.local;
      trace.send_ts_us = trace_clock_();
      trace_ptr = &trace;
      if (type == rpc::FrameType::AgentTransfer && body.size() >= 8) {
        // Remember this transfer's send stamp so the matching ack yields an
        // offset-free RTT sample. The token is the body's first 8 bytes.
        serial::Reader r(body.data(), 8);
        if (pending_rtt_.size() < kMaxPendingRtt) {
          pending_rtt_[r.u64le()] = {dst, trace.send_ts_us};
        }
      }
    }
  }
  const serial::Bytes encoded =
      rpc::encode_frame(type, config_.local, dst, seq, body,
                        config_.checksum, config_.incarnation, trace_ptr);
  const ConnPtr conn = peer_conn(dst);
  if (!conn) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.send_failures;
    return false;
  }
  bool ok;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    const int fd = conn->fd.load();
    ok = fd >= 0 && write_all(fd, encoded.data(), encoded.size());
  }
  if (!ok) {
    // Peer vanished mid-stream: drop the connection so the next send
    // re-dials, and let the caller's retry machinery handle this frame.
    drop_peer_conn(dst, conn);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.send_failures;
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames_sent;
    stats_.bytes_sent += encoded.size();
    if (type == rpc::FrameType::AgentTransfer) ++stats_.agent_frames_sent;
    if (type == rpc::FrameType::AgentTransferAck) ++stats_.agent_acks_sent;
  }
  if (trace_ptr != nullptr) {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    LinkStats& link = link_stats_[dst];
    ++link.frames_sent;
    link.bytes_sent += encoded.size();
  }
  return true;
}

bool SocketTransport::send_message(const net::Message& message) {
  if (config_.send_loss > 0.0) {
    bool lost;
    {
      std::lock_guard<std::mutex> lock(loss_mutex_);
      lost = std::bernoulli_distribution(config_.send_loss)(loss_rng_);
    }
    if (lost) {
      // The frame dies here, as if the wire ate it. Reporting success makes
      // the loss silent to the sender — exactly what the protocol's
      // ack-driven retransmissions exist to survive.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.loss_injected;
      return true;
    }
  }
  return send_frame(message.dst, rpc::FrameType::AppMessage,
                    rpc::encode_app_body(message));
}

bool SocketTransport::send_agent_frame(net::NodeId dst, const serial::Bytes& frame,
                                       std::uint64_t trace_session) {
  return send_frame(dst, rpc::FrameType::AgentTransfer, frame, trace_session);
}

bool SocketTransport::send_agent_ack(net::NodeId dst, std::uint64_t token) {
  return send_frame(dst, rpc::FrameType::AgentTransferAck,
                    rpc::encode_transfer_ack_body(token));
}

bool SocketTransport::send_announce(net::NodeId dst) {
  return send_frame(dst, rpc::FrameType::Announce,
                    rpc::encode_announce_body(
                        {config_.local, config_.incarnation}));
}

bool SocketTransport::reachable(net::NodeId dst) {
  if (dst >= config_.peers.size()) return false;
  std::lock_guard<std::mutex> lock(peers_mutex_);
  const auto it = peer_conns_.find(dst);
  return it == peer_conns_.end() || it->second->fd.load() >= 0;
}

TransportStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void SocketTransport::set_trace_clock(TraceClock clock) {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_clock_ = std::move(clock);
  trace_enabled_.store(static_cast<bool>(trace_clock_),
                       std::memory_order_relaxed);
}

void SocketTransport::note_received(rpc::Frame& frame) {
  if (!trace_enabled_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(trace_mutex_);
  if (!trace_clock_) return;
  const std::int64_t now = trace_clock_();
  if (frame.trace.has_value()) {
    frame.recv_ts_us = now;
    LinkStats& link = link_stats_[frame.header.src];
    ++link.frames_received;
    link.bytes_received += rpc::kHeaderSize + frame.body.size();
    if (link.owd_us.size() < kMaxLinkSamples) {
      link.owd_us.push_back(now - frame.trace->send_ts_us);
    }
  }
  if (frame.type() == rpc::FrameType::AgentTransferAck && frame.body.size() >= 8) {
    serial::Reader r(frame.body.data(), 8);
    const auto it = pending_rtt_.find(r.u64le());
    if (it != pending_rtt_.end()) {
      LinkStats& link = link_stats_[it->second.first];
      if (link.rtt_us.size() < kMaxLinkSamples) {
        link.rtt_us.push_back(now - it->second.second);
      }
      pending_rtt_.erase(it);
    }
  }
}

void SocketTransport::export_counters(trace::CounterRegistry& registry) const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  for (const auto& [peer, link] : link_stats_) {
    const std::string prefix = "link." + std::to_string(peer);
    registry.set(prefix + ".frames_sent", link.frames_sent);
    registry.set(prefix + ".bytes_sent", link.bytes_sent);
    registry.set(prefix + ".frames_received", link.frames_received);
    registry.set(prefix + ".bytes_received", link.bytes_received);
    export_quantiles(registry, prefix + ".rtt", link.rtt_us);
    export_quantiles(registry, prefix + ".owd", link.owd_us);
  }
}

void SocketTransport::accept_loop() {
  while (running_.load()) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;
    // Poll with a bounded timeout rather than parking in accept(): stop()
    // only shutdown()s the listener (the close comes after this task has
    // joined), and a shutdown listener is not guaranteed to wake accept()
    // on every platform — the poll timeout bounds the wait either way.
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (!running_.load()) return;
    if (ready <= 0) continue;  // timeout or EINTR — re-check running_
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down (stop) or fatal
    }
    auto conn = std::make_shared<Conn>();
    conn->fd.store(fd);
    {
      std::lock_guard<std::mutex> lock(inbound_mutex_);
      inbound_conns_.push_back(conn);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.accepts;
    }
    pool_->submit([this, conn] { reader_loop(conn); });
  }
}

void SocketTransport::reader_loop(ConnPtr conn) {
  // This task owns the descriptor's lifetime: conn->fd stays valid (stop()
  // only shutdown()s it) until the close_conn at the bottom.
  const int fd = conn->fd.load();
  while (fd >= 0 && running_.load()) {
    rpc::Frame frame;
    const rpc::DecodeStatus status = read_frame(fd, &frame);
    if (status == rpc::DecodeStatus::Truncated) {
      break;  // EOF / peer closed — normal end of a connection
    }
    if (status == rpc::DecodeStatus::ChecksumMismatch) {
      // Corrupt body, aligned stream: drop the frame, keep the connection.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.checksum_rejected;
      continue;
    }
    if (status != rpc::DecodeStatus::Ok) {
      // Bad magic/version/length — the byte stream is garbage from here on.
      MARP_LOG_WARN("transport")
          << "node " << config_.local << ": closing connection on "
          << rpc::decode_status_name(status) << " frame";
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_rejected;
      break;
    }
    if (rpc::extract_trace_context(&frame) != rpc::DecodeStatus::Ok) {
      // kFlagTrace with a too-short body: the whole body was read, so the
      // stream stays aligned — drop just this frame.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_rejected;
      continue;
    }
    note_received(frame);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_received;
      stats_.bytes_received += rpc::kHeaderSize + frame.body.size();
      if (frame.type() == rpc::FrameType::AgentTransfer) {
        ++stats_.agent_frames_received;
      }
      if (frame.type() == rpc::FrameType::AgentTransferAck) {
        ++stats_.agent_acks_received;
      }
    }
    ReplyFn reply = [conn](const serial::Bytes& encoded) {
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      const int reply_fd = conn->fd.load();
      return reply_fd >= 0 && write_all(reply_fd, encoded.data(), encoded.size());
    };
    receiver_(std::move(frame), std::move(reply));
  }
  close_conn(conn);
}

const char* SocketTransport::rpc_status_name(RpcStatus status) noexcept {
  switch (status) {
    case RpcStatus::Ok: return "ok";
    case RpcStatus::ConnectFailed: return "connect-failed";
    case RpcStatus::SendFailed: return "send-failed";
    case RpcStatus::Timeout: return "timeout";
    case RpcStatus::BadReply: return "bad-reply";
  }
  return "?";
}

SocketTransport::RpcStatus SocketTransport::rpc_call_ex(
    const Endpoint& endpoint, const serial::Bytes& request, rpc::Frame* reply,
    std::chrono::milliseconds timeout) {
  const int fd = connect_once(endpoint);
  if (fd < 0) return RpcStatus::ConnectFailed;
  RpcStatus status = RpcStatus::Ok;
  if (!write_all(fd, request.data(), request.size())) {
    status = RpcStatus::SendFailed;
  } else if (reply != nullptr) {
    const timeval tv{
        static_cast<time_t>(timeout.count() / 1000),
        static_cast<suseconds_t>((timeout.count() % 1000) * 1000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    errno = 0;
    if (read_frame(fd, reply) != rpc::DecodeStatus::Ok ||
        rpc::extract_trace_context(reply) != rpc::DecodeStatus::Ok) {
      // SO_RCVTIMEO surfaces as EAGAIN/EWOULDBLOCK out of recv(); anything
      // else (EOF, garbage frame) means the peer answered wrongly or died.
      status = (errno == EAGAIN || errno == EWOULDBLOCK) ? RpcStatus::Timeout
                                                         : RpcStatus::BadReply;
    }
  }
  ::close(fd);
  return status;
}

bool SocketTransport::rpc_call(const Endpoint& endpoint,
                               const serial::Bytes& request, rpc::Frame* reply,
                               std::chrono::milliseconds timeout) {
  return rpc_call_ex(endpoint, request, reply, timeout) == RpcStatus::Ok;
}

}  // namespace marp::transport

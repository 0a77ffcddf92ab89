#include "transport/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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
/// Bytes one recv may take off a connection.
constexpr std::size_t kReadChunk = 64 * 1024;
/// A blocked send re-checks running_ at least this often.
constexpr std::chrono::milliseconds kBlockedSendTick{100};

using Clock = std::chrono::steady_clock;

timespec timespec_of(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::max(d, Clock::duration::zero()));
  return {static_cast<time_t>(ns.count() / 1'000'000'000),
          static_cast<long>(ns.count() % 1'000'000'000)};
}

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

// Raw socket helpers. The listener and accepted connections are
// non-blocking; outbound connections are blocking, and senders pass
// MSG_DONTWAIT so a full socket surfaces as EAGAIN.

int open_listener(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::Uds) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof(addr.sun_path)) return -1;
    std::strncpy(addr.sun_path, endpoint.path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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

/// Client side: write the whole buffer to a blocking socket; EPIPE instead
/// of SIGPIPE.
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

/// Client side: block until one whole frame arrives on `fd`, the peer
/// hangs up or `deadline` passes.
SocketTransport::RpcStatus read_reply(int fd, rpc::Frame* reply,
                                      Clock::time_point deadline) {
  rpc::FrameStream stream;
  for (;;) {
    const rpc::DecodeStatus status = stream.next(reply);
    if (status == rpc::DecodeStatus::Ok) return SocketTransport::RpcStatus::Ok;
    if (status != rpc::DecodeStatus::Truncated) {
      return SocketTransport::RpcStatus::BadReply;
    }
    pollfd pfd{fd, POLLIN, 0};
    const timespec wait = timespec_of(deadline - Clock::now());
    const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
    if (ready == 0) return SocketTransport::RpcStatus::Timeout;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return SocketTransport::RpcStatus::BadReply;
    }
    const ssize_t n = ::recv(fd, stream.prepare(kReadChunk), kReadChunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return SocketTransport::RpcStatus::BadReply;  // EOF or error
    stream.commit(static_cast<std::size_t>(n));
  }
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      loss_rng_(config_.loss_seed),
      backoff_rng_(config_.connect_jitter_seed ^
                   (0x9E3779B97F4A7C15ULL * (config_.local + 1))) {
  MARP_REQUIRE(config_.local < config_.peers.size());
  MARP_ENSURE_MSG(wake_fd_ >= 0, "cannot create the transport's wake eventfd");
}

SocketTransport::~SocketTransport() {
  stop();
  ::close(wake_fd_);
}

void SocketTransport::open() {
  MARP_REQUIRE_MSG(!running_.load(), "transport already open");
  const int fd = open_listener(config_.peers[config_.local]);
  MARP_ENSURE_MSG(fd >= 0,
                  "cannot listen on " + config_.peers[config_.local].to_string());
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    listen_fd_ = fd;
  }
  running_.store(true);
}

void SocketTransport::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(peers_mutex_);
    for (auto& [node, conn] : peer_conns_) close_conn(conn);
    peer_conns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    for (const InConnPtr& conn : inbound_) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    inbound_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (config_.peers[config_.local].kind == Endpoint::Kind::Uds) {
    ::unlink(config_.peers[config_.local].path.c_str());
  }
}

void SocketTransport::wake() {
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) already means a wake is pending.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void SocketTransport::poll(Deadline deadline, std::vector<Inbound>& out) {
  {
    // Whatever a send blocked on a full socket drained into the buffers
    // meanwhile, it announced through wake(), so the ppoll below returns at
    // once and the collect after it hands those frames out.
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    poll_fds_.clear();
    poll_conns_.clear();
    poll_fds_.push_back({wake_fd_, POLLIN, 0});
    poll_fds_.push_back({listen_fd_, POLLIN, 0});
    for (const InConnPtr& conn : inbound_) {
      poll_fds_.push_back({conn->fd, POLLIN, 0});
      poll_conns_.push_back(conn);
    }
  }
  // Nanosecond deadline: virtual time is wall time, and poll()'s
  // millisecond timeout would round every short protocol timer up.
  const timespec wait = timespec_of(deadline - Clock::now());
  if (::ppoll(poll_fds_.data(), poll_fds_.size(), &wait, nullptr) <= 0) return;
  if (poll_fds_[0].revents != 0) {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof count);
  }
  std::lock_guard<std::mutex> lock(inbound_mutex_);
  if (poll_fds_[1].revents != 0) accept_locked();
  for (std::size_t i = 0; i < poll_conns_.size(); ++i) {
    if (poll_fds_[i + 2].revents != 0) fill_locked(*poll_conns_[i]);
  }
  collect_locked(out);
}

bool SocketTransport::accept_locked() {
  bool accepted = false;
  while (listen_fd_ >= 0) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN: the backlog is empty
    }
    auto conn = std::make_shared<InConn>();
    conn->fd = fd;
    inbound_.push_back(std::move(conn));
    accepted = true;
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.accepts;
  }
  return accepted;
}

void SocketTransport::fill_locked(InConn& conn) {
  if (conn.fd < 0 || conn.eof) return;
  ssize_t n;
  do {
    n = ::recv(conn.fd, conn.stream.prepare(kReadChunk), kReadChunk, 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    conn.stream.commit(static_cast<std::size_t>(n));
  } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
    conn.eof = true;
  }
}

void SocketTransport::collect_locked(std::vector<Inbound>& out) {
  TransportStats got;
  const auto keep_open = [&](const InConnPtr& conn) {
    for (;;) {
      rpc::Frame frame;
      const rpc::DecodeStatus status = conn->stream.next(&frame);
      if (status == rpc::DecodeStatus::Truncated) return !conn->eof;
      if (status == rpc::DecodeStatus::ChecksumMismatch) {
        // Corrupt body, aligned stream: drop the frame, keep the connection.
        ++got.checksum_rejected;
        continue;
      }
      if (status == rpc::DecodeStatus::BadTrace) {
        // kFlagTrace with a too-short body: the whole body was consumed, so
        // the stream stays aligned — drop just this frame.
        ++got.malformed_rejected;
        continue;
      }
      if (status != rpc::DecodeStatus::Ok) {
        // Bad magic/version/length — the byte stream is garbage from here on.
        MARP_LOG_WARN("transport")
            << "node " << config_.local << ": closing connection on "
            << rpc::decode_status_name(status) << " frame";
        ++got.malformed_rejected;
        return false;
      }
      note_received(frame);
      ++got.frames_received;
      got.bytes_received += rpc::kHeaderSize + frame.body.size();
      if (frame.type() == rpc::FrameType::AgentTransfer) ++got.agent_frames_received;
      if (frame.type() == rpc::FrameType::AgentTransferAck) ++got.agent_acks_received;
      ReplyFn reply;
      if (frame.type() == rpc::FrameType::ControlRequest) {
        reply = [this, conn](const serial::Bytes& encoded) {
          int fd;
          {
            std::lock_guard<std::mutex> lock(inbound_mutex_);
            fd = conn->fd;
          }
          return fd >= 0 && write_bytes(fd, encoded.data(), encoded.size());
        };
      }
      out.push_back({std::move(frame), std::move(reply)});
    }
  };
  const auto closed = [&](const InConnPtr& conn) {
    if (keep_open(conn)) return false;
    ::close(conn->fd);
    conn->fd = -1;
    return true;
  };
  inbound_.erase(std::remove_if(inbound_.begin(), inbound_.end(), closed),
                 inbound_.end());
  if (got.frames_received + got.checksum_rejected + got.malformed_rejected > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.frames_received += got.frames_received;
    stats_.bytes_received += got.bytes_received;
    stats_.agent_frames_received += got.agent_frames_received;
    stats_.agent_acks_received += got.agent_acks_received;
    stats_.checksum_rejected += got.checksum_rejected;
    stats_.malformed_rejected += got.malformed_rejected;
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

bool SocketTransport::write_bytes(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n =
        ::send(fd, data + done, size - done, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (!drain_until_writable(fd)) return false;
  }
  return true;
}

bool SocketTransport::drain_until_writable(int fd) {
  // The peer may itself be blocked writing to this node. With one thread per
  // node, neither would read again unless this wait keeps reading — so
  // accept and buffer everything inbound until `fd` has room.
  std::vector<pollfd> fds{{fd, POLLOUT, 0}};
  std::vector<InConnPtr> conns;
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const InConnPtr& conn : inbound_) {
      if (conn->eof) continue;
      fds.push_back({conn->fd, POLLIN, 0});
      conns.push_back(conn);
    }
  }
  const timespec tick = timespec_of(kBlockedSendTick);
  const int ready = ::ppoll(fds.data(), fds.size(), &tick, nullptr);
  if (!running_.load()) return false;
  if (ready <= 0) return ready == 0 || errno == EINTR;
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    if (fds[1].revents != 0) drained = accept_locked();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      // Skip a connection poll() closed meanwhile.
      if (fds[i + 2].revents == 0 || conns[i]->fd != fds[i + 2].fd) continue;
      fill_locked(*conns[i]);
      drained = true;
    }
  }
  if (drained) wake();
  return true;
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
    ok = fd >= 0 && write_bytes(fd, encoded.data(), encoded.size());
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
    status = read_reply(fd, reply, Clock::now() + timeout);
  }
  ::close(fd);
  return status;
}

}  // namespace marp::transport

#include "service/listener.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace afs::service {
namespace {

/// Poll granularity for the accept and reader loops: how quickly a stop
/// flag is noticed without burning CPU on a quiet socket.
constexpr int kPollMs = 200;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Connection::Connection(int fd, double write_timeout_s, ServiceStats* stats)
    : fd_(fd), write_timeout_(write_timeout_s), stats_(stats) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::write_line(const std::string& line) {
  std::scoped_lock lock(mu_);
  if (dead_.load(std::memory_order_acquire)) return false;
  const double deadline = now_s() + write_timeout_;
  std::size_t sent = 0;
  while (sent < line.size()) {
    const double remaining = deadline - now_s();
    if (remaining <= 0.0) break;  // slow reader: socket never drained
    struct pollfd p = {fd_, POLLOUT, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(remaining * 1000.0) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) break;  // write timeout
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;  // EPIPE / ECONNRESET: peer disconnected mid-stream
    }
    sent += static_cast<std::size_t>(n);
  }
  if (sent == line.size()) return true;
  // The peer is gone or jammed. Tear down inline (we already hold mu_):
  // cancel the in-flight tokens, shut the socket so the reader exits.
  // Count before shutdown(): the shutdown is what the peer observes (its
  // read returns EOF), so accounting first keeps the stats from ever
  // lagging behind the observable teardown.
  dead_.store(true, std::memory_order_release);
  if (stats_) stats_->connections_torn_down.fetch_add(1);
  for (CancelToken* t : tokens_) t->cancel();
  tokens_.clear();
  ::shutdown(fd_, SHUT_RDWR);
  return false;
}

std::uint64_t Connection::open_slot() {
  std::scoped_lock lock(order_mu_);
  slots_.push_back({next_slot_, {}, false});
  return next_slot_++;
}

void Connection::send(std::uint64_t slot, const std::string& line) {
  std::scoped_lock lock(order_mu_);
  if (!slots_.empty() && slots_.front().id == slot) {
    write_line(line);
    return;
  }
  for (Slot& s : slots_)
    if (s.id == slot) s.held.push_back(line);
}

void Connection::close_slot(std::uint64_t slot, const std::string& last) {
  std::scoped_lock lock(order_mu_);
  for (Slot& s : slots_) {
    if (s.id != slot) continue;
    if (!last.empty()) s.held.push_back(last);
    s.closed = true;
  }
  // Whatever the oldest open slot holds goes out; a closed oldest slot
  // retires and hands the turn to the next.
  while (!slots_.empty()) {
    Slot& front = slots_.front();
    for (const std::string& line : front.held) write_line(line);
    front.held.clear();
    if (!front.closed) break;
    slots_.pop_front();
  }
}

void Connection::teardown(bool forced) {
  std::scoped_lock lock(mu_);
  if (dead_.exchange(true, std::memory_order_acq_rel)) return;
  // Same ordering as write_line's failure path: stats before shutdown(),
  // so a client that sees EOF and immediately asks another connection for
  // stats cannot observe a teardown the counters don't know about yet.
  if (forced && stats_) stats_->connections_torn_down.fetch_add(1);
  for (CancelToken* t : tokens_) t->cancel();
  tokens_.clear();
  ::shutdown(fd_, SHUT_RDWR);
}

void Connection::register_cancel(CancelToken* token) {
  std::scoped_lock lock(mu_);
  if (dead_.load(std::memory_order_acquire)) {
    token->cancel();  // client already gone: don't start work for it
    return;
  }
  tokens_.push_back(token);
}

void Connection::unregister_cancel(CancelToken* token) {
  std::scoped_lock lock(mu_);
  tokens_.erase(std::remove(tokens_.begin(), tokens_.end(), token),
                tokens_.end());
}

bool Connection::strike() {
  return strikes_.fetch_add(1) + 1 >= kMaxStrikes;
}

Listener::Listener(std::string socket_path, double write_timeout_s,
                   std::size_t max_connections, ServiceStats* stats,
                   Handlers handlers)
    : path_(std::move(socket_path)),
      write_timeout_(write_timeout_s),
      max_connections_(max_connections),
      stats_(stats),
      handlers_(std::move(handlers)) {}

Listener::~Listener() { close_all(); }

bool Listener::start(std::string& error) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path_.empty() || path_.size() >= sizeof(addr.sun_path)) {
    error = "socket path must be 1.." +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes: '" + path_ +
            "'";
    return false;
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  // Crash recovery: a SIGKILLed daemon leaves its socket file behind.
  // Probe it — if nobody answers, it is stale and safe to remove; if a
  // live daemon answers, starting a second one here is an error.
  if (::access(path_.c_str(), F_OK) == 0) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      const int rc = ::connect(
          probe, reinterpret_cast<const struct sockaddr*>(&addr), sizeof addr);
      ::close(probe);
      if (rc == 0) {
        error = "a daemon is already serving on " + path_;
        return false;
      }
    }
    ::unlink(path_.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const struct sockaddr*>(&addr),
             sizeof addr) != 0) {
    error = "bind(" + path_ + "): " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    error = std::string("listen(): ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    return false;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Listener::stop_accepting() {
  stop_accepting_.store(true, std::memory_order_release);
}

void Listener::close_all() {
  stop_accepting_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<ReaderSlot> readers;
  {
    std::scoped_lock lock(mu_);
    conns.swap(conns_);
    readers.swap(readers_);
  }
  for (const auto& c : conns) c->teardown(false);
  for (ReaderSlot& r : readers)
    if (r.thread.joinable()) r.thread.join();
  ::unlink(path_.c_str());
}

void Listener::reap_finished_locked() {
  for (std::size_t i = 0; i < readers_.size();) {
    if (readers_[i].done->load(std::memory_order_acquire)) {
      readers_[i].thread.join();
      readers_[i] = std::move(readers_.back());
      readers_.pop_back();
    } else {
      ++i;
    }
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::shared_ptr<Connection>& c) {
                                return c.use_count() == 1 && c->dead();
                              }),
               conns_.end());
}

void Listener::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (stop_accepting_.load(std::memory_order_acquire)) break;
    struct pollfd p = {listen_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollMs);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) {
      std::scoped_lock lock(mu_);
      reap_finished_locked();
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      break;
    }
    if (stats_) stats_->connections_total.fetch_add(1);

    std::scoped_lock lock(mu_);
    reap_finished_locked();
    if (conns_.size() >= max_connections_) {
      // Connection-level backpressure: answer with the structured
      // overload error instead of silently queueing or hanging.
      const std::string line = response_error(
          {err::kOverloaded, "too many connections"}, /*tag=*/"");
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      if (stats_) stats_->rejected_overloaded.fetch_add(1);
      continue;
    }
    auto conn = std::make_shared<Connection>(fd, write_timeout_, stats_);
    if (stats_) stats_->connections_open.fetch_add(1);
    ReaderSlot slot;
    slot.done = std::make_shared<std::atomic<bool>>(false);
    auto done = slot.done;
    slot.thread = std::thread([this, conn, done] {
      reader_loop(conn);
      done->store(true, std::memory_order_release);
    });
    conns_.push_back(conn);
    readers_.push_back(std::move(slot));
  }
  // Stop accepting: close the listening socket so new connect()s are
  // refused for the rest of the drain, and remove the socket file so
  // clients fail fast instead of queueing on a dead endpoint.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Listener::reader_loop(std::shared_ptr<Connection> conn) {
  LineFramer framer;
  char buf[4096];
  while (!stop_.load(std::memory_order_acquire) && !conn->dead()) {
    struct pollfd p = {conn->fd(), POLLIN, 0};
    const int rc = ::poll(&p, 1, kPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const ssize_t n = ::read(conn->fd(), buf, sizeof buf);
    if (n == 0) break;  // EOF: client closed its end
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    framer.feed(buf, static_cast<std::size_t>(n));
    for (;;) {
      std::string frame;
      ProtocolError ferr;
      if (framer.next_frame(frame)) {
        if (handlers_.on_frame) handlers_.on_frame(conn, frame);
      } else if (framer.next_error(ferr)) {
        if (handlers_.on_frame_error) handlers_.on_frame_error(conn, ferr);
      } else {
        break;
      }
      if (conn->dead()) break;
    }
  }
  // Natural EOF and forced teardown converge here; teardown() is
  // idempotent, so the forced path keeps its earlier accounting.
  conn->teardown(false);
  if (stats_) stats_->connections_open.fetch_sub(1);
}

}  // namespace afs::service

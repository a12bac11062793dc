// Unix-domain socket listener for the sweep daemon.
//
// One reader thread per connection feeds the LineFramer and hands
// complete frames (and framing errors) to the daemon's handler; writes go
// through Connection::write_line, which serializes concurrent writers
// (the connection's own reader answering health/stats, and the queue's
// workers streaming runs' progress) and bounds how long a slow reader can
// stall the daemon. Reply slots keep pipelined run answers in submission
// order. A client that disconnects, jams the socket, floods garbage
// or stops reading is torn down — its in-flight work is cancelled via the
// tokens registered on the connection — without touching any other
// connection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/service_stats.hpp"
#include "util/cancel.hpp"

namespace afs::service {

class Connection {
 public:
  /// Takes ownership of `fd`. `write_timeout_s` bounds each write_line
  /// against a reader that stops draining its socket.
  Connection(int fd, double write_timeout_s, ServiceStats* stats);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one response line. Serializes concurrent writers. Returns
  /// false — after tearing the connection down — when the peer is gone
  /// or won't drain within the write timeout. Safe to call after
  /// teardown (a no-op returning false).
  bool write_line(const std::string& line);

  /// Pipelined requests are answered in submission order: each takes a
  /// reply slot when it is admitted, and lines sent to a slot go out at
  /// once only while every earlier slot is closed; otherwise they wait
  /// and go out, in order, when the earlier slots close. Lines written
  /// with write_line (inline verbs, admission replies) skip the order.
  std::uint64_t open_slot();
  void send(std::uint64_t slot, const std::string& line);
  /// Sends `last` (unless empty) and closes the slot, releasing the lines
  /// of the slots after it.
  void close_slot(std::uint64_t slot, const std::string& last);

  /// Cancels every registered token, shuts the socket down both ways
  /// (unblocking the reader thread) and marks the connection dead.
  /// Idempotent; safe from any thread. `forced` distinguishes a
  /// misbehaving-client teardown from a natural EOF in the stats.
  void teardown(bool forced);

  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Ties a request's cancel token to this connection's lifetime: if the
  /// client goes away, the token fires and the queue stops burning pool
  /// time on an answer nobody will read. Unregister before the
  /// token is destroyed. Registering on a dead connection cancels
  /// immediately.
  void register_cancel(CancelToken* token);
  void unregister_cancel(CancelToken* token);

  /// Protocol-error budget: counts one strike, returns true when the
  /// connection has exceeded its allowance and should be torn down (a
  /// client feeding endless garbage is hostile, not unlucky).
  bool strike();

  int fd() const { return fd_; }

 private:
  static constexpr int kMaxStrikes = 8;

  struct Slot {
    std::uint64_t id;
    std::vector<std::string> held;  // lines waiting for earlier slots
    bool closed = false;
  };

  int fd_;
  double write_timeout_;
  ServiceStats* stats_;
  std::mutex mu_;  // serializes writes; guards tokens_
  std::vector<CancelToken*> tokens_;
  std::mutex order_mu_;  // guards slots_; taken before mu_
  std::deque<Slot> slots_;  // open slots, oldest first
  std::uint64_t next_slot_ = 0;
  std::atomic<bool> dead_{false};
  std::atomic<int> strikes_{0};
};

/// Accepts connections on a Unix-domain socket and pumps their frames to
/// the daemon. Start/stop sequence: start() binds and spawns the accept
/// thread; stop_accepting() closes the listening socket (existing
/// connections live on — the drain phase); close_all() tears every
/// connection down and joins the reader threads.
class Listener {
 public:
  struct Handlers {
    /// One complete frame from a live connection.
    std::function<void(const std::shared_ptr<Connection>&,
                       const std::string& frame)>
        on_frame;
    /// One framing error (currently only frame_too_long).
    std::function<void(const std::shared_ptr<Connection>&,
                       const ProtocolError&)>
        on_frame_error;
  };

  Listener(std::string socket_path, double write_timeout_s,
           std::size_t max_connections, ServiceStats* stats,
           Handlers handlers);
  ~Listener();

  /// Binds and listens. A stale socket file from a crashed daemon is
  /// removed (after probing that no live daemon answers on it); a live
  /// one is an error. Returns false with `error` on failure.
  bool start(std::string& error);

  /// Stops accepting new connections; existing ones keep serving.
  void stop_accepting();

  /// Tears down every connection and joins all threads. Implies
  /// stop_accepting(). Unlinks the socket path.
  void close_all();

 private:
  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void reap_finished_locked();

  /// One reader thread plus its completion flag, so finished readers can
  /// be joined (reaped) from the accept loop without ever blocking on a
  /// live one.
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  std::string path_;
  double write_timeout_;
  std::size_t max_connections_;
  ServiceStats* stats_;
  Handlers handlers_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_accepting_{false};
  std::mutex mu_;  // guards conns_ / readers_
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<ReaderSlot> readers_;
  std::thread accept_thread_;
};

}  // namespace afs::service

#ifndef UCQN_SERVER_LISTENER_H_
#define UCQN_SERVER_LISTENER_H_

#include <atomic>
#include <cstddef>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "server/daemon.h"

namespace ucqn {

// The longest request line either transport reads, in bytes, not
// counting its newline. A longer line is answered with one error line
// (OverlongLineResponse) instead of being buffered without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

// The error response line for a request line over kMaxRequestLineBytes.
std::string OverlongLineResponse();

// The `ucqnd --stdio` transport: serves `in` line by line into `out`
// (one response line each, flushed) until EOF. Blank lines are skipped.
// An over-long line gets OverlongLineResponse, its remaining bytes are
// skipped, and serving goes on with the next line.
void ServeStream(QueryDaemon* daemon, std::istream& in, std::ostream& out);

// The daemon's transport front: a Unix-domain stream socket speaking the
// line-delimited protocol. One accept loop, one thread per connection,
// responses written strictly in each connection's request order — the
// concurrency story lives entirely in QueryDaemon::Submit, which every
// connection thread calls directly. Local-socket-only is deliberate: the
// daemon multiplexes *sessions*, not networks; filesystem permissions on
// the socket path are the access boundary.
//
// A connection whose request line exceeds kMaxRequestLineBytes gets
// OverlongLineResponse and is closed: the stream cannot be resynchronized
// without reading the rest of the line.
class SocketListener {
 public:
  // `daemon` must outlive the listener.
  explicit SocketListener(QueryDaemon* daemon) : daemon_(daemon) {}
  ~SocketListener() { Stop(); }

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Binds `path` (unlinking a stale socket file first) and starts the
  // accept loop in a background thread. Returns false and sets `*error`
  // when the bind fails.
  bool Start(const std::string& path, std::string* error);

  // Stops accepting, shuts down live connections, joins every thread,
  // and unlinks the socket file. Idempotent. In-flight Submits finish
  // (their sockets are shut down, so the response write may fail, but
  // the daemon-side work completes) — call daemon->Drain() first for a
  // graceful close.
  void Stop();

  bool running() const { return running_.load(); }
  // Connections accepted and not yet closed.
  std::size_t open_connections();
  const std::string& path() const { return path_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  QueryDaemon* daemon_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  // Open connection fds, guarded by conn_mu_. A connection removes its
  // own fd before closing it, so Stop never shuts down a reused number.
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;  // guarded by conn_mu_
};

}  // namespace ucqn

#endif  // UCQN_SERVER_LISTENER_H_

#include "server/listener.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

namespace ucqn {

namespace {

// Writes all of `text` to `fd`, riding out short writes and EINTR.
bool WriteAll(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::write(fd, text.data() + sent, text.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string OverlongLineResponse() {
  ServiceResponse response;
  response.status = ServiceResponse::Status::kError;
  response.error = "request line longer than " +
                   std::to_string(kMaxRequestLineBytes) + " bytes";
  return response.ToJsonLine();
}

void ServeStream(QueryDaemon* daemon, std::istream& in, std::ostream& out) {
  // Room for one byte past the cap: a line that fills the buffer is
  // exactly the over-long case.
  std::string buffer(kMaxRequestLineBytes + 2, '\0');
  for (;;) {
    in.getline(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0 && in.fail()) break;  // EOF
    // A newline that ended the line is counted in gcount, not stored.
    const bool ended = !in.fail() && !in.eof();
    const std::size_t length = ended ? got - 1 : got;
    if (length > kMaxRequestLineBytes) {
      if (in.fail()) {  // the rest of the line is still unread
        in.clear();
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      }
      out << OverlongLineResponse() << std::endl;
      continue;
    }
    const std::string line(buffer.data(), length);
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      out << daemon->SubmitLine(line) << std::endl;
    }
  }
}

bool SocketListener::Start(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (running_.load()) {
    if (error != nullptr) *error = "listener already running";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket()");
  ::unlink(path.c_str());  // a stale file from a crashed run blocks bind
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind(" + path + ")");
  }
  if (::listen(listen_fd_, 64) < 0) return fail("listen(" + path + ")");

  path_ = path;
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void SocketListener::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen fd shut down (Stop) or broken — either way, done
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void SocketListener::ServeConnection(int fd) {
  // Byte-stream to line framing: accumulate reads, cut on '\n'. Each line
  // is one request; each response is written before the next line is
  // served, so a pipelining client gets responses in request order.
  // A line over kMaxRequestLineBytes — complete or still arriving — is
  // answered with one error line and ends the connection.
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = buffer.find('\n', start);
      const std::size_t end =
          newline == std::string::npos ? buffer.size() : newline;
      if (end - start > kMaxRequestLineBytes) {
        WriteAll(fd, OverlongLineResponse() + "\n");
        open = false;
        break;
      }
      if (newline == std::string::npos) break;
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      if (!WriteAll(fd, daemon_->SubmitLine(line) + "\n")) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Absent once Stop has taken the list.
    auto it = std::find(conn_fds_.begin(), conn_fds_.end(), fd);
    if (it != conn_fds_.end()) conn_fds_.erase(it);
  }
  ::close(fd);
}

std::size_t SocketListener::open_connections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_fds_.size();
}

void SocketListener::Stop() {
  if (!running_.exchange(false)) return;
  // Shut the listen socket down so accept() returns, then wake every
  // connection's read() the same way.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_fds_.clear();
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (!path_.empty()) ::unlink(path_.c_str());
}

}  // namespace ucqn

#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>

namespace mui::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  // std::system_category().message is the thread-safe strerror: the daemon
  // hits this from worker threads (concurrency-mt-unsafe).
  throw std::runtime_error(
      what + ": " + std::system_category().message(errno));
}

sockaddr_in makeAddr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("invalid IPv4 address '" + host +
                             "' (the daemon binds numeric loopback "
                             "addresses only)");
  }
  return addr;
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd listenTcp(const std::string& host, std::uint16_t port,
             std::uint16_t& boundPort) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = makeAddr(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail("cannot bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname");
  }
  boundPort = ntohs(addr.sin_port);
  return fd;
}

Fd connectTcp(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) fail("socket");
  const sockaddr_in addr = makeAddr(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail("cannot connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::optional<Fd> acceptWithTimeout(int listenFd, int wakeFd, int timeoutMs) {
  pollfd pfd[2] = {{listenFd, POLLIN, 0}, {wakeFd, POLLIN, 0}};
  const int n = ::poll(pfd, 2, timeoutMs);
  if (n < 0) {
    if (errno == EINTR) return std::nullopt;
    fail("poll");
  }
  if (n == 0 || pfd[1].revents != 0 || (pfd[0].revents & POLLIN) == 0) {
    return std::nullopt;
  }
  Fd conn(::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC));
  if (!conn.valid()) {
    if (errno == ECONNABORTED || errno == EINTR) return std::nullopt;
    fail("accept");
  }
  const int one = 1;
  ::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

void writeAll(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    written += static_cast<std::size_t>(n);
  }
}

void shutdownRead(int fd) { ::shutdown(fd, SHUT_RD); }

void shutdownWrite(int fd) { ::shutdown(fd, SHUT_WR); }

std::optional<std::string> LineReader::next() {
  for (;;) {
    const std::size_t eol = buf_.find('\n', pos_ + scanned_);
    const std::size_t length =
        (eol == std::string::npos ? buf_.size() : eol) - pos_;
    if (length > kMaxLine) {
      throw LineTooLong("line longer than " + std::to_string(kMaxLine) +
                        " bytes");
    }
    if (eol != std::string::npos) {
      std::string line = buf_.substr(pos_, length);
      pos_ = eol + 1;
      scanned_ = 0;
      if (pos_ > (1u << 16)) {  // keep the buffer from growing unbounded
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    scanned_ = length;
    if (eof_) {
      if (pos_ >= buf_.size()) return std::nullopt;
      std::string line = buf_.substr(pos_);
      pos_ = buf_.size();
      scanned_ = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read");
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace mui::serve

#pragma once
// Thin POSIX TCP helpers for the serve subsystem: an RAII fd, loopback
// listen/connect, full-buffer writes, and a buffered newline-delimited
// reader. Deliberately minimal — the daemon speaks line protocols only
// (JSONL jobs, HTTP GET), so there is nothing here beyond what those
// need. All errors surface as std::runtime_error with the errno text.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mui::serve {

/// Move-only owner of a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port; port 0 lets the kernel pick and
/// `boundPort` reports the actual one. Throws on resolution/bind failure
/// (e.g. the port is taken).
Fd listenTcp(const std::string& host, std::uint16_t port,
             std::uint16_t& boundPort);

/// Blocking connect; throws when nothing listens there.
Fd connectTcp(const std::string& host, std::uint16_t port);

/// Accepts one connection, waiting at most `timeoutMs`; nullopt on
/// timeout or when `wakeFd` turns readable (the caller re-checks its stop
/// flag and polls again).
std::optional<Fd> acceptWithTimeout(int listenFd, int wakeFd, int timeoutMs);

/// Writes the whole buffer; throws on a closed or failing peer. Uses
/// MSG_NOSIGNAL so a vanished client is an exception, not a SIGPIPE.
void writeAll(int fd, std::string_view data);

/// Unblocks any thread blocked reading `fd` (they see EOF); the write
/// side stays open so in-flight replies can still be delivered.
void shutdownRead(int fd);

/// Sends the peer EOF after what was written so far; reading goes on.
void shutdownWrite(int fd);

/// A line that passed LineReader::kMaxLine bytes without a terminator.
class LineTooLong : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Buffered reader returning one '\n'-terminated line at a time (without
/// the terminator; a trailing '\r' is trimmed for HTTP request lines).
class LineReader {
 public:
  /// The longest line read, terminator excluded. Job lines hold paths
  /// and formulas, and /trace sends one event per line.
  static constexpr std::size_t kMaxLine = std::size_t{1} << 20;

  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line, or nullopt at EOF. A final unterminated chunk before EOF
  /// is returned as a line. Throws LineTooLong as soon as the line passes
  /// kMaxLine bytes, and std::runtime_error on socket errors. Each byte
  /// is scanned for the terminator once.
  std::optional<std::string> next();

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::size_t scanned_ = 0;  // bytes past pos_ that hold no '\n'
  bool eof_ = false;
};

}  // namespace mui::serve

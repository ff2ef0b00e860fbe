#ifndef RDFREL_SERVE_NET_H_
#define RDFREL_SERVE_NET_H_

/// \file net.h
/// Thin POSIX socket helpers shared by the server, the test client and the
/// load generator. Every call retries EINTR; errors come back as Status
/// (never errno globals at the call site).

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rdfrel::serve {

/// RAII file descriptor.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& o) noexcept : fd_(o.release()) {}
  UniqueFd& operator=(UniqueFd&& o) noexcept;
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Creates a listening TCP socket on host:port (SO_REUSEADDR). With port 0
/// the kernel picks one; \p bound_port receives the actual port.
Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port);

/// Blocking connect to host:port (numeric IPv4, e.g. "127.0.0.1").
/// The socket has TCP_NODELAY set.
Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port);

/// Accepts one connection on \p listen_fd, with TCP_NODELAY set.
Result<UniqueFd> AcceptTcp(int listen_fd);

/// Writes all of \p data (handles partial writes). Returns kCancelled on
/// EPIPE/ECONNRESET — the peer went away, which streaming treats as a
/// cancellation, not a server error.
Status WriteAll(int fd, std::string_view data);

/// Reads once into \p buf (up to \p cap bytes). Returns 0 at EOF.
Result<size_t> ReadSome(int fd, char* buf, size_t cap);

/// Blocks until \p fd is readable or \p timeout_ms elapsed (-1 = forever).
/// Returns false on timeout.
Result<bool> WaitReadable(int fd, int timeout_ms);

}  // namespace rdfrel::serve

#endif  // RDFREL_SERVE_NET_H_

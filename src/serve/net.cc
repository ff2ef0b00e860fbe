#include "serve/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rdfrel::serve {

namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::Internal(std::string(what) + ": " + std::strerror(err));
}

/// Results stream in small chunks on both ends of a connection; don't let
/// Nagle hold a chunk back waiting for the peer's delayed ACK.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

UniqueFd& UniqueFd::operator=(UniqueFd&& o) noexcept {
  if (this != &o) reset(o.release());
  return *this;
}

int UniqueFd::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind", errno);
  }
  if (::listen(fd.get(), backlog) != 0) return ErrnoStatus("listen", errno);

  if (bound_port != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&got), &len) !=
        0) {
      return ErrnoStatus("getsockname", errno);
    }
    *bound_port = ntohs(got.sin_port);
  }
  return fd;
}

Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return ErrnoStatus("connect", errno);
  SetNoDelay(fd.get());
  return fd;
}

Result<UniqueFd> AcceptTcp(int listen_fd) {
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return ErrnoStatus("accept", errno);
  SetNoDelay(fd);
  return UniqueFd(fd);
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Cancelled("peer closed the connection");
      }
      return ErrnoStatus("send", errno);
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Result<size_t> ReadSome(int fd, char* buf, size_t cap) {
  ssize_t n;
  do {
    n = ::read(fd, buf, cap);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == ECONNRESET) return Status::Cancelled("connection reset");
    return ErrnoStatus("read", errno);
  }
  return static_cast<size_t>(n);
}

Result<bool> WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("poll", errno);
  return rc > 0;
}

}  // namespace rdfrel::serve

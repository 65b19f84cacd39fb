#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

namespace scd::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  // strerror races only garble the message, never the thrown kind.
  throw WireError(
      WireErrorKind::kIo,
      what + ": " + std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

[[nodiscard]] in_addr resolve_host(const std::string& host) {
  in_addr addr{};
  const std::string dotted =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, dotted.c_str(), &addr) != 1) {
    throw WireError(WireErrorKind::kIo,
                    "cannot parse host \"" + host +
                        "\" (IPv4 dotted quad or \"localhost\")");
  }
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket Socket::connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket out(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = resolve_host(host);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  // One small frame per interval: latency over batching.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return out;
}

void Socket::send_all(std::span<const std::uint8_t> bytes) {
  if (!valid()) {
    throw WireError(WireErrorKind::kIo, "send on a closed socket");
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t Socket::recv_some(std::uint8_t* buffer, std::size_t capacity) {
  if (!valid()) {
    throw WireError(WireErrorKind::kIo, "recv on a closed socket");
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, capacity, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

void Socket::set_recv_timeout(double seconds) {
  if (!valid()) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      std::lround((seconds - std::floor(seconds)) * 1e6));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::~ListenSocket() { close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(other.port_) {}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

ListenSocket ListenSocket::listen_tcp(const std::string& host,
                                      std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  ListenSocket out;
  out.fd_ = fd;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr = resolve_host(host);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("getsockname");
  }
  out.port_ = ntohs(bound.sin_port);
  return out;
}

Socket ListenSocket::accept() {
  if (!valid()) {
    throw WireError(WireErrorKind::kIo, "accept on a closed socket");
  }
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw_errno("accept");
    }
    return Socket(fd);
  }
}

void ListenSocket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::close() noexcept {
  if (fd_ >= 0) {
    shutdown();
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace scd::net

// Minimal blocking TCP sockets for the aggregation tier.
//
// Deliberately small: the aggregator topology is N long-lived node
// connections shipping one frame per interval, so blocking sockets with one
// reader thread per connection are simpler and easier to reason about than
// an event loop, and the frame cadence (seconds to minutes) makes syscall
// overhead irrelevant. Every failure path throws WireError(kIo) with the
// errno text; EOF is an in-band return (recv_some() == 0), not an error,
// because a node closing its connection is a normal lifecycle event the
// aggregator must handle gracefully.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "net/wire.h"

namespace scd::net {

/// RAII wrapper over one connected TCP socket (client side or an accepted
/// connection). Movable, not copyable; the destructor closes the fd.
class Socket {
 public:
  Socket() noexcept = default;
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (IPv4 dotted quad or "localhost"). Throws
  /// WireError(kIo) on resolution or connection failure.
  [[nodiscard]] static Socket connect_tcp(const std::string& host,
                                          std::uint16_t port);

  /// Sends the whole buffer, looping over short writes. Throws
  /// WireError(kIo) when the peer is gone or the socket fails.
  void send_all(std::span<const std::uint8_t> bytes);

  /// Reads up to `capacity` bytes; returns the count, 0 on orderly EOF.
  /// Throws WireError(kIo) on socket failure.
  [[nodiscard]] std::size_t recv_some(std::uint8_t* buffer,
                                      std::size_t capacity);

  /// Arms SO_RCVTIMEO so a blocked recv_some wakes after ~`seconds` and
  /// throws WireError(kIo) — the accept/reader threads use it to notice
  /// shutdown without an extra signalling channel.
  void set_recv_timeout(double seconds);

  /// Half-closes both directions without releasing the fd: a reader thread
  /// blocked in recv_some() wakes with EOF. This is the only safe way to
  /// interrupt another thread's blocking read — close() would free the fd
  /// number for reuse while the reader still holds it.
  void shutdown_both() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  friend class ListenSocket;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  int fd_ = -1;
};

/// RAII listening socket. Binds with SO_REUSEADDR; port 0 binds an ephemeral
/// port whose actual number port() reports (the loopback tests depend on
/// this to avoid fixed-port collisions).
class ListenSocket {
 public:
  ListenSocket() noexcept = default;
  ~ListenSocket();
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  [[nodiscard]] static ListenSocket listen_tcp(const std::string& host,
                                               std::uint16_t port,
                                               int backlog = 16);

  /// Blocks until a connection arrives. Throws WireError(kIo) on failure —
  /// including when the listening socket is shutdown() from another thread,
  /// which is the accept loop's shutdown path.
  [[nodiscard]] Socket accept();

  /// The bound port (resolves port 0 to the kernel-assigned ephemeral port).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Wakes a thread blocked in accept() without releasing the fd. Like
  /// Socket::shutdown_both(), this is the only safe way to interrupt another
  /// thread's accept(): close() would free the fd number for reuse while
  /// accept() still holds it. Close only after that thread has finished.
  void shutdown() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace scd::net

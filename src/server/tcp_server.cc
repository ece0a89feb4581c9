#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/errno_string.h"

namespace cuckoograph::server {
namespace {

constexpr int kListenBacklog = 128;
constexpr int kMaxEpollEvents = 64;
constexpr size_t kReadChunk = 16 * 1024;
// Pending reply buffers gathered into one sendmsg call. Well under
// IOV_MAX (1024 on Linux); deeper queues just take another iteration of
// the flush loop.
constexpr size_t kMaxFlushIovecs = 64;

std::string Errno(const char* what) {
  return std::string(what) + ": " + ErrnoString(errno);
}

}  // namespace

TcpRespServer::TcpRespServer(const ServerConfig& config,
                             const redis_sim::CommandTable* table)
    : config_(config), table_(table) {
  if (config_.num_workers < 1) config_.num_workers = 1;
}

TcpRespServer::~TcpRespServer() { Stop(); }

bool TcpRespServer::Start(std::string* error) {
  const auto fail = [this, error](const std::string& why) {
    if (error != nullptr) *error = why;
    Stop();
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    return fail("server already running");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return fail(Errno("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("invalid bind address '" + config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Errno("bind"));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) < 0) return fail(Errno("listen"));

  workers_.clear();
  for (int w = 0; w < config_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0) return fail(Errno("epoll_create1"));
    worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->wake_fd < 0) return fail(Errno("eventfd"));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) <
        0) {
      return fail(Errno("epoll_ctl(wake)"));
    }
    workers_.push_back(std::move(worker));
  }
  // Worker 0 owns the listener.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(workers_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) <
      0) {
    return fail(Errno("epoll_ctl(listen)"));
  }

  running_.store(true, std::memory_order_release);
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker* worker = workers_[w].get();
    worker->thread =
        std::thread([this, worker, w] { WorkerLoop(worker, w == 0); });
  }
  return true;
}

namespace {

// Rings a worker's eventfd. A signal can interrupt even this 8-byte
// write; dropping it on EINTR would lose the wakeup and leave the
// worker parked in epoll_wait with work pending.
void RingWakeFd(int wake_fd) {
  const uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(wake_fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

}  // namespace

void TcpRespServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (const auto& worker : workers_) {
      RingWakeFd(worker->wake_fd);
    }
    for (const auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
  for (const auto& worker : workers_) {
    for (const auto& [fd, connection] : worker->conns) {
      (void)connection;
      ::close(fd);
      closed_.fetch_add(1, std::memory_order_relaxed);
    }
    worker->conns.clear();
    {
      // The worker threads are joined (or were never started on a
      // failed Start), but the acceptor in another still-running
      // server instance is not a thing we need to reason about — take
      // the lock and let the analysis prove every inbox access.
      MutexLock lock(&worker->inbox_mu);
      for (const int fd : worker->inbox) ::close(fd);
      worker->inbox.clear();
    }
    if (worker->wake_fd >= 0) ::close(worker->wake_fd);
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

TcpRespServer::Stats TcpRespServer::stats() const {
  Stats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_closed = closed_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return stats;
}

void TcpRespServer::WorkerLoop(Worker* worker, bool owns_listener) {
  epoll_event events[kMaxEpollEvents];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(worker->epoll_fd, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // the epoll fd itself failed; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker->wake_fd) {
        uint64_t drained = 0;
        ssize_t r;
        do {
          r = ::read(worker->wake_fd, &drained, sizeof(drained));
        } while (r < 0 && errno == EINTR);
        AdoptInbox(worker);
        continue;
      }
      if (owns_listener && fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      // The same wait batch can carry a second event for a connection a
      // prior event already closed — look it up fresh every time.
      const auto it = worker->conns.find(fd);
      if (it == worker->conns.end()) continue;
      Connection* connection = it->second.get();
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(worker, connection);
      }
      const auto again = worker->conns.find(fd);
      if (again == worker->conns.end()) continue;
      if (events[i].events & EPOLLOUT) {
        FlushWrites(worker, again->second.get());
      }
    }
  }
}

void TcpRespServer::AcceptPending() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept failure
    }
    // Nagle off, so a pipelined burst's replies flush at once.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const size_t target = next_worker_.fetch_add(1, std::memory_order_relaxed) %
                          workers_.size();
    Worker* worker = workers_[target].get();
    if (target == 0) {
      // The acceptor is worker 0's loop; adopt without the inbox hop.
      {
        MutexLock lock(&worker->inbox_mu);
        worker->inbox.push_back(fd);
      }
      AdoptInbox(worker);
    } else {
      {
        MutexLock lock(&worker->inbox_mu);
        worker->inbox.push_back(fd);
      }
      RingWakeFd(worker->wake_fd);
    }
  }
}

void TcpRespServer::AdoptInbox(Worker* worker) {
  std::vector<int> adopted;
  {
    MutexLock lock(&worker->inbox_mu);
    adopted.swap(worker->inbox);
  }
  for (const int fd : adopted) {
    auto connection = std::make_unique<Connection>(fd, table_);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      closed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    worker->conns.emplace(fd, std::move(connection));
  }
}

void TcpRespServer::HandleReadable(Worker* worker, Connection* connection) {
  char buffer[kReadChunk];
  bool eof = false;
  while (true) {
    const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      std::string replies;
      const bool clean = connection->conn.Feed(
          std::string_view(buffer, static_cast<size_t>(n)), &replies);
      if (!replies.empty()) {
        // One queue entry per parsed chunk: a pipelined burst's replies
        // already share this buffer, and the flush path gathers the
        // whole queue into a single sendmsg anyway.
        connection->out.push_back(std::move(replies));
      }
      if (!clean) {
        // Framing error: the -ERR reply is queued; drop the client after
        // the flush, as a real Redis does.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        connection->close_after_flush = true;
        break;
      }
      continue;
    }
    if (n == 0) {  // client finished sending; flush replies, then close
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(worker, connection);  // hard socket error
    return;
  }
  if (eof || connection->close_after_flush) {
    connection->close_after_flush = true;
    if (!HasPendingWrites(*connection)) {
      CloseConnection(worker, connection);
      return;
    }
    // Stop watching for reads (an EOF'd socket stays level-readable
    // forever) and let the flush path close once the replies drain.
    connection->writable_armed = true;
    UpdateEpollInterest(worker, connection);
  }
  FlushWrites(worker, connection);
}

void TcpRespServer::FlushWrites(Worker* worker, Connection* connection) {
  while (HasPendingWrites(*connection)) {
    // Gather every pending reply buffer (the front one offset by the
    // partial-write cursor) into a single scatter/gather syscall —
    // sendmsg rather than writev so MSG_NOSIGNAL still applies.
    iovec iov[kMaxFlushIovecs];
    size_t iov_count = 0;
    size_t offset = connection->out_pos;
    for (const std::string& pending : connection->out) {
      if (iov_count == kMaxFlushIovecs) break;
      iov[iov_count].iov_base =
          const_cast<char*>(pending.data()) + offset;
      iov[iov_count].iov_len = pending.size() - offset;
      ++iov_count;
      offset = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(connection->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      // Retire fully written buffers; a short write leaves the cursor
      // mid-buffer for the next pass.
      size_t written = static_cast<size_t>(n);
      while (written > 0) {
        std::string& front = connection->out.front();
        const size_t left = front.size() - connection->out_pos;
        if (written < left) {
          connection->out_pos += written;
          break;
        }
        written -= left;
        connection->out_pos = 0;
        connection->out.pop_front();
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!connection->writable_armed) {
        connection->writable_armed = true;
        UpdateEpollInterest(worker, connection);
      }
      return;  // the socket will signal EPOLLOUT when it drains
    }
    CloseConnection(worker, connection);  // peer vanished mid-reply
    return;
  }
  if (connection->close_after_flush) {
    CloseConnection(worker, connection);
    return;
  }
  if (connection->writable_armed) {
    connection->writable_armed = false;
    UpdateEpollInterest(worker, connection);
  }
}

void TcpRespServer::UpdateEpollInterest(Worker* worker,
                                        Connection* connection) {
  epoll_event ev{};
  // A closing connection no longer reads (see HandleReadable on EOF).
  ev.events = (connection->close_after_flush ? 0u : EPOLLIN) |
              (connection->writable_armed ? EPOLLOUT : 0u);
  ev.data.fd = connection->fd;
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, connection->fd, &ev);
}

void TcpRespServer::CloseConnection(Worker* worker, Connection* connection) {
  const int fd = connection->fd;
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  worker->conns.erase(fd);  // frees `connection`
}

}  // namespace cuckoograph::server

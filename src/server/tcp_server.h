// TcpRespServer: the network service over the Redis-protocol front door.
// An epoll-based nonblocking TCP server that speaks RESP2 and dispatches
// every request into a shared CommandTable through one RespConnection
// per socket — the same dispatch/protocol core an embedder calls
// directly, so the served path adds only sockets, not a second protocol
// implementation. Figure 17 and the served sweep run over it.
//
// Threading model (see docs/ARCHITECTURE.md for the lifecycle diagram):
//  - `num_workers` event-loop threads, each running its own epoll set.
//    Worker 0 additionally owns the nonblocking listener; accepted
//    connections are handed to workers round-robin through a per-worker
//    inbox + eventfd wakeup.
//  - A connection is pinned to one worker for its whole life, so its
//    RespConnection parse state and write buffer are single-threaded by
//    construction and per-connection reply order is request order (full
//    pipelining, no reordering).
//  - With num_workers == 1 the server is a classic single-threaded event
//    loop and any handler target is safe. With num_workers > 1, workers
//    dispatch into the shared CommandTable concurrently, so the handlers
//    must target a thread-safe store (one advertising
//    Capabilities().concurrent_mutations, e.g. cuckoo-sharded — its
//    per-shard reader/writer locks are the only mutexes on the dispatch
//    path; the server itself adds none around handlers).
//
// Per-connection I/O: reads drain the socket until EAGAIN and feed each
// chunk to the connection's incremental RESP parser; the replies each
// chunk produces become one buffer on the connection's outbound queue,
// and the flush path gathers every pending buffer into a single
// scatter/gather write (sendmsg with an iovec per buffer) instead of
// one syscall per buffer. EPOLLOUT is armed only while a partial write
// is outstanding (slow clients block only themselves). A protocol error
// answers -ERR and closes the connection after the flush, like a real
// Redis.
#ifndef CUCKOOGRAPH_SERVER_TCP_SERVER_H_
#define CUCKOOGRAPH_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "redis_sim/command_table.h"

namespace cuckoograph::server {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;    // 0 = kernel-assigned; read the result via port()
  int num_workers = 1;  // epoll event-loop threads (clamped to >= 1)
};

class TcpRespServer {
 public:
  // The table must outlive the server and be fully registered before
  // Start (registration is not thread-safe against dispatch).
  TcpRespServer(const ServerConfig& config,
                const redis_sim::CommandTable* table);
  ~TcpRespServer();  // implies Stop()

  TcpRespServer(const TcpRespServer&) = delete;
  TcpRespServer& operator=(const TcpRespServer&) = delete;

  // Binds, listens and spawns the worker threads. Returns false (with a
  // reason in *error when given) on socket setup failure.
  bool Start(std::string* error = nullptr);

  // Shuts the listener and every worker down and joins the threads.
  // Open connections are closed without draining their write buffers.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (resolves port 0), valid after a successful Start.
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t protocol_errors = 0;  // connections dropped on framing errors
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };
  Stats stats() const;

 private:
  // One client socket and everything pinned to its worker: protocol
  // state, the outbound reply queue, and the flush cursor.
  struct Connection {
    explicit Connection(int fd_in, const redis_sim::CommandTable* table)
        : fd(fd_in), conn(table) {}
    int fd = -1;
    redis_sim::RespConnection conn;
    // Encoded replies not yet written, one buffer per parsed read chunk
    // (a pipelined chunk's replies share a buffer). The flush path
    // gathers the whole queue into one sendmsg; `out_pos` is how much
    // of the front buffer a partial write already consumed.
    std::deque<std::string> out;
    size_t out_pos = 0;
    bool close_after_flush = false;
    bool writable_armed = false;  // EPOLLOUT currently requested
  };

  static bool HasPendingWrites(const Connection& connection) {
    return !connection.out.empty();
  }

  // Cross-thread state is annotated; everything else in a Worker is
  // touched only by its own event-loop thread (plus Stop after the
  // join), which no mutex can express — the pinning is the invariant.
  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: new-connection inbox + stop signal
    std::thread thread;
    // The accept → worker handoff: the acceptor pushes under the lock,
    // the owning worker swaps the vector out under it (AdoptInbox).
    Mutex inbox_mu;
    std::vector<int> inbox CUCKOOGRAPH_GUARDED_BY(inbox_mu);
    // Worker-thread-confined: created/erased/read only on the owning
    // event loop (Stop touches it only after joining the thread).
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
  };

  void WorkerLoop(Worker* worker, bool owns_listener);
  void AcceptPending();
  void AdoptInbox(Worker* worker);
  void HandleReadable(Worker* worker, Connection* connection);
  // Writes as much of the outbound queue as the socket takes, gathering
  // all pending buffers into a single scatter/gather syscall per
  // iteration; arms/disarms EPOLLOUT and closes when a drained
  // connection asked for it.
  void FlushWrites(Worker* worker, Connection* connection);
  void CloseConnection(Worker* worker, Connection* connection);
  void UpdateEpollInterest(Worker* worker, Connection* connection);

  ServerConfig config_;
  const redis_sim::CommandTable* table_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<size_t> next_worker_{0};  // round-robin accept target
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace cuckoograph::server

#endif  // CUCKOOGRAPH_SERVER_TCP_SERVER_H_

// Per-thread counts of the socket syscalls /proc does not see. The io
// file's syscr/syscw count read(2)/write(2) but not recv(2)/sendmsg(2),
// which is how the RESP server moves its bytes, so this benchmark binary
// interposes those two libc entry points (socket_calls.cc) and counts
// each call against the calling thread before forwarding it to the
// kernel unchanged.
#ifndef PERFBENCH_SOCKET_CALLS_H_
#define PERFBENCH_SOCKET_CALLS_H_

#include <sys/types.h>

#include <cstdint>

namespace perfbench {

struct SocketCalls {
  uint64_t recv = 0;
  uint64_t sendmsg = 0;
};

// Calls made so far by thread `tid` (zeros if it made none).
SocketCalls SocketCallsOf(pid_t tid);

}  // namespace perfbench

#endif  // PERFBENCH_SOCKET_CALLS_H_

#include "socket_calls.h"

#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "proc_stats.h"

namespace perfbench {
namespace {

struct Slot {
  std::atomic<uint64_t> recv{0};
  std::atomic<uint64_t> sendmsg{0};
};

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}

std::map<pid_t, std::unique_ptr<Slot>>& Registry() {
  static std::map<pid_t, std::unique_ptr<Slot>> slots;
  return slots;
}

// The calling thread's slot, registered on its first socket call. Slots
// are never freed, so a count stays readable after its thread exits.
Slot* ThisThreadSlot() {
  thread_local Slot* slot = nullptr;
  if (slot == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMu());
    auto& entry = Registry()[CurrentTid()];
    if (!entry) entry = std::make_unique<Slot>();
    slot = entry.get();
  }
  return slot;
}

}  // namespace

SocketCalls SocketCallsOf(pid_t tid) {
  std::lock_guard<std::mutex> lock(RegistryMu());
  SocketCalls calls;
  auto it = Registry().find(tid);
  if (it != Registry().end()) {
    calls.recv = it->second->recv.load(std::memory_order_relaxed);
    calls.sendmsg = it->second->sendmsg.load(std::memory_order_relaxed);
  }
  return calls;
}

}  // namespace perfbench

extern "C" ssize_t recv(int fd, void* buf, size_t len, int flags) {
  perfbench::ThisThreadSlot()->recv.fetch_add(1, std::memory_order_relaxed);
  return ::syscall(SYS_recvfrom, fd, buf, len, flags, nullptr, nullptr);
}

extern "C" ssize_t sendmsg(int fd, const struct msghdr* msg, int flags) {
  perfbench::ThisThreadSlot()->sendmsg.fetch_add(1,
                                                 std::memory_order_relaxed);
  return ::syscall(SYS_sendmsg, fd, msg, flags);
}

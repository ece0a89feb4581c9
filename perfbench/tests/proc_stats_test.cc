#include "proc_stats.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

// A thread that waits, makes `writes` write(2) calls to /dev/null
// (phase 1) or spins for 50 ms (phase 2) when told to, and waits again, so another thread can read its counters
// around exactly that work.
class Subject {
 public:
  explicit Subject(int writes)
      : writes_(writes), thread_([this] { Run(); }) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return tid_ != 0; });
  }
  ~Subject() {
    Step(3);
    thread_.join();
  }
  pid_t tid() const { return tid_; }
  int written() const { return written_; }
  // Lets the thread run phase `phase` and waits until it finishes.
  void Step(int phase) {
    std::unique_lock<std::mutex> lock(mu_);
    phase_ = phase;
    cv_.notify_all();
    cv_.wait(lock, [&] { return done_ == phase; });
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    tid_ = CurrentTid();
    cv_.notify_all();
    while (true) {
      cv_.wait(lock, [&] { return phase_ != done_; });
      if (phase_ == 1) {
        const int fd = ::open("/dev/null", O_WRONLY);
        char byte = 0;
        for (int i = 0; i < writes_; ++i) written_ += ::write(fd, &byte, 1);
        ::close(fd);
      } else if (phase_ == 2) {
        volatile uint64_t sink = 0;
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
        while (std::chrono::steady_clock::now() < until) sink = sink + 1;
      }
      done_ = phase_;
      cv_.notify_all();
      if (done_ == 3) return;
    }
  }

  const int writes_;
  std::mutex mu_;
  std::condition_variable cv_;
  pid_t tid_ = 0;
  int phase_ = 0;
  int done_ = 0;
  int written_ = 0;
  std::thread thread_;
};

TEST(ProcStatsTest, CountsAnotherThreadsWriteCalls) {
  constexpr int kWrites = 1000;
  Subject subject(kWrites);
  ThreadCounters before, after;
  ASSERT_TRUE(ReadThreadCounters(subject.tid(), &before));
  subject.Step(1);
  ASSERT_TRUE(ReadThreadCounters(subject.tid(), &after));
  const ThreadCounters d = after - before;
  ASSERT_EQ(subject.written(), kWrites);
  EXPECT_EQ(d.syscw, static_cast<uint64_t>(kWrites));
  // Waking from the condition variable is a voluntary switch.
  EXPECT_GE(d.voluntary_ctx, 1u);
  EXPECT_EQ(d.write_bytes, 0u);  // /dev/null is not storage
}

TEST(ProcStatsTest, ChargesCpuTimeToTheBusyThread) {
  Subject subject(0);
  ThreadCounters before, after;
  ASSERT_TRUE(ReadThreadCounters(subject.tid(), &before));
  subject.Step(1);
  subject.Step(2);  // 50 ms busy loop
  ASSERT_TRUE(ReadThreadCounters(subject.tid(), &after));
  const ThreadCounters d = after - before;
  EXPECT_GE(d.cpu_ns, 40'000'000u);
  EXPECT_EQ(d.syscw, 0u);
}

TEST(ProcStatsTest, ListsThisThreadAndSumsCounters) {
  const std::vector<pid_t> tids = ListThreads();
  EXPECT_NE(std::find(tids.begin(), tids.end(), CurrentTid()), tids.end());
  ThreadCounters one, sum;
  ASSERT_TRUE(ReadThreadCounters(CurrentTid(), &one));
  ASSERT_TRUE(ReadThreadsCounters({CurrentTid(), CurrentTid()}, &sum));
  EXPECT_GE(sum.syscr, 2 * one.syscr);
  EXPECT_FALSE(ReadThreadCounters(-1, &one));
}

TEST(ProcStatsTest, ProcessCounters) {
  EXPECT_GT(VmRssBytes(), 0u);
  EXPECT_GT(ProcessCpuNs(), 0u);
}

}  // namespace
}  // namespace perfbench

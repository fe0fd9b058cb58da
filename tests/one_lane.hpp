#pragma once
// The one-lane reference of the tests and benches that check or time split
// lane passes (xmp/sched/lanes.hpp) against inline ones. While a OneLane
// lives, a thread of its own holds a lane pass open, and a pass started
// while another is in flight runs inline: every other pass in the process
// runs on its caller alone.

#include <atomic>
#include <thread>

#include "xmp/sched/lanes.hpp"

class OneLane {
public:
  OneLane()
      : holder_([this] {
          auto hold = [this](int lane, int) {
            if (lane > 0) return;
            held_.store(true);
            held_.notify_one();
            release_.wait(false);
          };
          xmp::lanes::run(xmp::lanes::kMaxLanes, hold);
        }) {
    held_.wait(false);
  }
  ~OneLane() {
    release_.store(true);
    release_.notify_one();
    holder_.join();
  }
  OneLane(const OneLane&) = delete;
  OneLane& operator=(const OneLane&) = delete;

private:
  std::atomic<bool> held_{false};
  std::atomic<bool> release_{false};
  std::thread holder_;
};

/// fn() with every lane pass of the process inline.
template <class Fn>
decltype(auto) on_one_lane(Fn&& fn) {
  const OneLane one;
  return fn();
}

// The virtual clock that drives stream ingestion and all time measurement.
//
// Every timestamp the library reports (match times, latency, progressiveness)
// is in *stream-time milliseconds* relative to Start(). Two modes exist:
//
//  - kRealTime: stream time advances with the wall clock (optionally scaled
//    by time_scale to fast-forward long windows). Tuples "arrive" when the
//    clock passes their timestamp, which is how the eager algorithms stall on
//    input and how the lazy algorithms wait out the window (paper §4.2.2).
//  - kInstant: every tuple is available immediately (arrival rate = infinity,
//    the paper's "data at rest" setting used by DEBS and the §5.5 parameter
//    studies). The clock itself still runs so elapsed times remain
//    meaningful for progressiveness.
#ifndef IAWJ_COMMON_CLOCK_H_
#define IAWJ_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace iawj {

class Clock {
 public:
  enum class Mode { kInstant, kRealTime };

  explicit Clock(Mode mode, double time_scale = 1.0);

  // Marks stream time zero. Must be called before any other member.
  void Start();

  // Stream-time milliseconds elapsed since Start().
  double NowMs() const;

  // Stream time up to which tuples are visible: NowMs() under the real-time
  // clock; +infinity under the instant clock, which reads no clock. One
  // reading tests a whole block of arrivals.
  double ArrivalHorizonMs() const {
    return mode_ == Mode::kInstant ? std::numeric_limits<double>::infinity()
                                   : NowMs();
  }

  // Whether a tuple with the given arrival timestamp is visible yet.
  bool HasArrived(uint32_t ts_ms) const {
    return static_cast<double>(ts_ms) <= ArrivalHorizonMs();
  }

  // Blocks until stream time reaches stream_ms (no-op in kInstant mode or if
  // the moment has already passed).
  void SleepUntilMs(double stream_ms) const;

  Mode mode() const { return mode_; }
  double time_scale() const { return time_scale_; }

 private:
  Mode mode_;
  double time_scale_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace iawj

#endif  // IAWJ_COMMON_CLOCK_H_

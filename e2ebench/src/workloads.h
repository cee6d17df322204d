// The benchmark's workloads and the stream they replay.
//
// Every workload replays one fixed-seed CloudLog base stream (the paper's
// cloud-service log shape, workload/generators.h) in 512-event frames,
// endlessly: replay k shifts every sync_time by k * period, so a run of
// any length needs only the base stream in memory. Sixteen sessions carry
// the frames, eight per shard, chosen so that each shard is fed by its own
// connection (or submit path) in order.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/timestamp.h"

namespace e2ebench {

using impatience::Event;
using impatience::Timestamp;

inline constexpr size_t kEventsPerFrame = 512;
inline constexpr size_t kShards = 2;
inline constexpr size_t kSessionsPerShard = 8;
inline constexpr size_t kBaseEvents = size_t{1} << 20;

class BaseStream {
 public:
  BaseStream(uint64_t seed, size_t events);

  size_t frames() const { return frame_max_.size(); }
  size_t events() const { return events_.size(); }

  // Frame `i` of the endless replay into `out` (resized to one frame):
  // base frame i % frames(), every time shifted by (i / frames()) * period.
  // Returns the frame's largest sync_time.
  Timestamp Frame(size_t i, std::vector<Event>* out) const;

 private:
  std::vector<Event> events_;
  std::vector<Timestamp> frame_max_;
  Timestamp period_ = 0;
};

// sessions[s] = the kSessionsPerShard session ids that route to shard s
// under the server's session hash.
std::vector<std::vector<uint64_t>> SessionsByShard();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // Traced runs write their span files here.
};

struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Settings the numbers depend on, stamped into the output.
  std::vector<std::pair<std::string, std::string>> stamps;
  // Lines for the human-readable part of the output.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. False (with *error) when the run could not be set up
// or measured; a run that completes but fails its output check returns
// true with report->correct == false.
bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_

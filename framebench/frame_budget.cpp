// frame_budget: the frame-budget benchmark harness (see README.md).
//
// One workload per process, detectors on, timed from outside the program:
//
//   hog_1080p         1920x1080 day/dusk frames through
//                     AdaptiveSystem::detect_vehicles (HOG+SVM path)
//   dark_1080p        1920x1080 dark frames through the same call (DBN path)
//   drive_serve_360p  4 canonical drives at 640x360 served by
//                     runtime::StreamServer (rendering runs inside the
//                     detect stage, as in the program today)
//
//   frame_budget --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--inject-wrong-detection]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"info":{..}}
// --inject-wrong-detection alters one detection the harness receives, to
// show that the output checks count it.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "avd/core/adaptive_system.hpp"
#include "avd/datasets/sequence.hpp"
#include "avd/detect/multi_model_scan.hpp"
#include "avd/hog/block_grid.hpp"
#include "avd/hog/hog.hpp"
#include "avd/image/blobs.hpp"
#include "avd/image/color.hpp"
#include "avd/image/filter.hpp"
#include "avd/image/morphology.hpp"
#include "avd/image/resize.hpp"
#include "avd/image/threshold.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace {

using namespace avd;
using Clock = std::chrono::steady_clock;

// --- workload shapes ------------------------------------------------------

constexpr img::Size kFullHd{1920, 1080};
constexpr img::Size kServeSize{640, 360};
/// Pixel workloads: distinct frames rendered during set-up, as
/// kPixelSegments drive segments of kFramesPerSegment coherent frames.
constexpr int kPixelSegments = 4;
constexpr int kFramesPerSegment = 2;
constexpr int kVehiclesPerFrame = 4;
/// Serving workload: streams x canonical_drive(kServeFramesPerSegment).
constexpr int kServeStreams = 4;
constexpr int kServeFramesPerSegment = 8;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;
/// Frames of the workload's own drive the traced run of a pixel workload
/// serves through StreamServer, so runtime and core layers are priced on it.
constexpr int kProbeFramesPerSegment = 2;
/// Passes of the traced run's layer pricing over the workload's frames.
constexpr int kPricingPasses = 2;

enum class Kind { Hog, Dark, Serve };

struct Options {
  std::string workload;
  Kind kind = Kind::Hog;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_wrong = false;
};

// --- small helpers --------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of a sample (q in [0,1]); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Smallest nanosecond value the program's histogram files in bin >= `bin`.
std::uint64_t bin_floor_ns(int bin) {
  std::uint64_t lo = 0, hi = std::uint64_t{1} << 62;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (obs::Histogram::bin_index(mid) >= bin)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// Per-sample values (ms) of a quiesced program histogram, spread evenly
/// across each bin's range. The histogram keeps 8 bins per octave, so its
/// own percentiles jump by ~9 % between bin midpoints; quantiles of these
/// samples move smoothly instead. percentile_ns(k/n) is the bin of the k-th
/// smallest sample.
std::vector<double> histogram_samples_ms(const obs::Histogram& h) {
  std::vector<double> out;
  const std::uint64_t n = h.count();
  const auto kth = [&](std::uint64_t k) {
    return h.percentile_ns(static_cast<double>(k) / static_cast<double>(n));
  };
  for (std::uint64_t k = 1; k <= n;) {
    const std::uint64_t v = kth(k);
    std::uint64_t m = 1;
    while (k + m <= n && kth(k + m) == v) ++m;
    const int bin = obs::Histogram::bin_index(v);
    const double lo = static_cast<double>(bin_floor_ns(bin));
    const double hi = static_cast<double>(bin_floor_ns(bin + 1));
    for (std::uint64_t j = 0; j < m; ++j)
      out.push_back((lo + (static_cast<double>(j) + 0.5) /
                              static_cast<double>(m) * (hi - lo)) /
                    1e6);
    k += m;
  }
  return out;
}

/// Wall time of fn() in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

/// Compute threads the benchmark may use (pool workers + caller, or pooled
/// detect workers + launcher): one core is left to the rest of the host,
/// and at most 3 — fixed work per run whatever the machine.
int compute_threads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n - 1, 1, 3);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_detections(const std::vector<det::Detection>& a,
                     const std::vector<det::Detection>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const det::Detection& x, const det::Detection& y) {
                      return x.box == y.box && x.score == y.score &&
                             x.class_id == y.class_id;
                    });
}

bool same_lights(const std::vector<det::TaillightDetection>& a,
                 const std::vector<det::TaillightDetection>& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const det::TaillightDetection& x, const det::TaillightDetection& y) {
        return x.center == y.center && x.cls == y.cls &&
               x.confidence == y.confidence && x.blob_box == y.blob_box &&
               x.blob_area == y.blob_area;
      });
}

bool same_match(const det::MatchResult& a, const det::MatchResult& b) {
  return a.true_positives == b.true_positives &&
         a.false_negatives == b.false_negatives &&
         a.false_positives == b.false_positives;
}

bool same_report(const core::AdaptiveFrameReport& a,
                 const core::AdaptiveFrameReport& b) {
  return a.index == b.index && a.light_level == b.light_level &&
         a.sensed == b.sensed && a.active_config == b.active_config &&
         a.vehicle_processed == b.vehicle_processed &&
         a.pedestrian_processed == b.pedestrian_processed &&
         a.reconfig_triggered == b.reconfig_triggered &&
         a.vehicles_truth == b.vehicles_truth &&
         same_match(a.vehicle_match, b.vehicle_match) &&
         a.animals_truth == b.animals_truth &&
         same_match(a.animal_match, b.animal_match) &&
         a.degrade_level == b.degrade_level &&
         a.detect_coasted == b.detect_coasted;
}

/// The wrong detection --inject-wrong-detection plants: the first box
/// shifted by a pixel, or a spurious box when there is none.
void make_wrong(std::vector<det::Detection>& dets) {
  if (dets.empty())
    dets.push_back({{0, 0, 64, 64}, 1.0, det::kClassVehicle});
  else
    dets.front().box.x += 1;
}

std::vector<img::Rect> truth_boxes(const data::SceneSpec& scene) {
  std::vector<img::Rect> out;
  for (const data::VehicleSpec& v : scene.vehicles) out.push_back(v.body);
  return out;
}

/// Output of one run: the result line plus human-readable notes.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  long long attempted = 0;
  long long failed = 0;

  void metric(std::string name, double value, std::string unit) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), value, unit.c_str());
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit = "") {
    info.push_back({std::move(name), value, std::move(unit)});
  }
};

void print_json(const Result& r, const Options& opt) {
  const auto object = [](const std::vector<Result::Metric>& ms) {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < ms.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
      s += (i ? ",\"" : "\"") + ms[i].name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + ms[i].unit + "\"}";
    }
    return s + "}";
  };
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s,"
      "\"info\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"build_type\":\"%s\",\"cxx_flags\":\"%s\",\"compiler\":\"%s\","
      "\"values\":%s}}\n",
      r.failed == 0 ? "true" : "false", r.attempted, r.failed,
      object(r.metrics).c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      FB_BUILD_TYPE, FB_CXX_FLAGS, FB_COMPILER, object(r.info).c_str());
}

// --- inputs ---------------------------------------------------------------

/// The pixel workloads' drive: day/dusk (HOG) or dark segments, coherent
/// motion within a segment, fresh scenes per segment.
data::SequenceSpec pixel_spec(Kind kind, std::uint64_t seed,
                              int frames_per_segment) {
  data::SequenceSpec spec;
  spec.frame_size = kFullHd;
  spec.vehicles_per_frame = kVehiclesPerFrame;
  spec.pedestrians_per_frame = 1;
  spec.coherent_motion = true;
  spec.seed = seed;
  for (int s = 0; s < kPixelSegments; ++s) {
    const data::LightingCondition c =
        kind == Kind::Dark ? data::LightingCondition::Dark
                           : (s % 2 == 0 ? data::LightingCondition::Day
                                         : data::LightingCondition::Dusk);
    spec.segments.push_back({c, frames_per_segment, -1.0});
  }
  return spec;
}

/// The serving workload's streams: canonical_drive, one seed per stream.
std::vector<data::DriveSequence> serve_streams(std::uint64_t seed) {
  std::vector<data::DriveSequence> streams;
  for (int s = 0; s < kServeStreams; ++s) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive(kServeSize, kServeFramesPerSegment);
    spec.seed = seed * 16 + static_cast<std::uint64_t>(s);
    streams.emplace_back(spec);
  }
  return streams;
}

struct PixelFrame {
  data::SequenceFrame meta;
  img::RgbImage rgb;
};

/// Everything one set-up produces: trained system, rendered frames (pixel
/// workloads) or the server and its streams (serving workload). `server`
/// refers to `*system`, so it is declared (and destroyed) last.
struct Rig {
  std::unique_ptr<core::AdaptiveSystem> system;
  std::vector<PixelFrame> frames;
  std::vector<data::DriveSequence> streams;
  std::unique_ptr<runtime::StreamServer> server;
};

std::unique_ptr<runtime::StreamServer> make_server(
    const core::AdaptiveSystem& system, runtime::ThreadPool& pool) {
  runtime::StreamServerConfig sc;
  sc.detect_workers = compute_threads();
  sc.scan_pool = &pool;
  sc.detect_policy = runtime::OverflowPolicy::Block;
  sc.slo.enabled = true;
  return std::make_unique<runtime::StreamServer>(system, sc);
}

/// Render a drive's frames on the pool (render_scene is a pure function).
std::vector<PixelFrame> render_frames(const data::DriveSequence& seq,
                                      const std::vector<int>& indices,
                                      runtime::ThreadPool& pool) {
  std::vector<PixelFrame> frames(indices.size());
  pool.run_indexed(static_cast<int>(indices.size()), [&](int i) {
    PixelFrame& f = frames[static_cast<std::size_t>(i)];
    f.meta = seq.frame(indices[static_cast<std::size_t>(i)]);
    f.rgb = data::render_scene(f.meta.scene);
  });
  return frames;
}

Rig set_up(const Options& opt, runtime::ThreadPool& pool) {
  Rig rig;
  core::AdaptiveSystemConfig cfg;
  cfg.sliding.pool = &pool;
  rig.system = std::make_unique<core::AdaptiveSystem>(
      core::build_system_models(), cfg);
  if (opt.kind == Kind::Serve) {
    rig.streams = serve_streams(opt.seed);
    rig.server = make_server(*rig.system, pool);
    return rig;
  }
  const data::DriveSequence seq(
      pixel_spec(opt.kind, opt.seed, kFramesPerSegment));
  std::vector<int> all(static_cast<std::size_t>(seq.frame_count()));
  for (int i = 0; i < seq.frame_count(); ++i) all[static_cast<std::size_t>(i)] = i;
  rig.frames = render_frames(seq, all, pool);
  return rig;
}

/// Detection quality against scene truth, overall and per lighting mode
/// (indexed like data::LightingCondition: day, dusk, dark). Reported beside
/// the metrics, not as bounded metrics: see README.md.
struct Quality {
  det::MatchResult mode[3];
  int frames[3] = {};

  void add(data::LightingCondition c, const det::MatchResult& m,
           int n_frames = 1) {
    const auto i = static_cast<std::size_t>(c);
    mode[i].true_positives += m.true_positives;
    mode[i].false_negatives += m.false_negatives;
    mode[i].false_positives += m.false_positives;
    frames[i] += n_frames;
  }

  void report(Result& r) const {
    const auto put = [&r](const std::string& suffix, int tp, int fn, int fp,
                          int n) {
      const double recall = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn)
                                        : 0.0;
      const double fppf = n > 0 ? static_cast<double>(fp) / n : 0.0;
      std::printf("  quality%-8s recall %.4f  fp_per_frame %.4f  (%d truth, "
                  "%d frames)\n",
                  suffix.c_str(), recall, fppf, tp + fn, n);
      r.note("recall" + suffix, recall, "ratio");
      r.note("fp_per_frame" + suffix, fppf, "count");
    };
    int tp = 0, fn = 0, fp = 0, n = 0;
    const char* names[] = {"_day", "_dusk", "_dark"};
    for (int i = 0; i < 3; ++i) {
      tp += mode[i].true_positives;
      fn += mode[i].false_negatives;
      fp += mode[i].false_positives;
      n += frames[i];
    }
    put("", tp, fn, fp, n);
    for (int i = 0; i < 3; ++i)
      if (frames[i] > 0)
        put(names[i], mode[i].true_positives, mode[i].false_negatives,
            mode[i].false_positives, frames[i]);
  }
};

// --- pixel workloads: closed loop over pre-rendered frames ---------------

struct PixelLoop {
  std::vector<std::vector<det::Detection>> oracle;  ///< first pass, per frame
  std::vector<double> frame_ms;                     ///< timed samples
  std::vector<long long> visits;                    ///< timed calls per frame
  double wall_s = 0.0;
  long long failed = 0;
};

/// Pins the calling thread to one CPU after another of those it was allowed
/// at construction; restores that set when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty())
      pthread_setaffinity_np(pthread_self(), sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Warm-up pass (kept as the per-frame oracle), then a closed loop cycling
/// through the frames for `seconds`. Every timed output must equal the
/// frame's oracle output.
///
/// Before each frame the calling thread moves to the next CPU. On a shared
/// host the cores run at different speeds (up to ~1.5x apart, changing over
/// seconds), and a thread the scheduler leaves on one core samples only that
/// core: the single-threaded dark front end's p50 then swung by ~20 % from
/// run to run. Cycling samples every core evenly; the call is unchanged.
PixelLoop run_pixel_loop(const Rig& rig, const Options& opt) {
  const core::AdaptiveSystem& system = *rig.system;
  const auto detect = [&](const PixelFrame& f) {
    return system.detect_vehicles(f.rgb, f.meta.condition);
  };
  PixelLoop loop;
  const std::size_t n = rig.frames.size();
  loop.visits.assign(n, 0);
  for (const PixelFrame& f : rig.frames) loop.oracle.push_back(detect(f));

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  CpuRotation rotation;
  for (std::size_t i = 0; Clock::now() < stop; ++i) {
    const std::size_t k = i % n;
    rotation.next();
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    try {
      std::vector<det::Detection> dets = detect(rig.frames[k]);
      const Clock::time_point t1 = Clock::now();
      loop.frame_ms.push_back(ms_between(t0, t1));
      if (opt.inject_wrong && i == 0) make_wrong(dets);
      ok = same_detections(dets, loop.oracle[k]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "frame %zu threw: %s\n", k, e.what());
      ok = false;
    }
    ++loop.visits[k];
    loop.failed += ok ? 0 : 1;
  }
  loop.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return loop;
}

/// Frames checked against the retained reference scanners: two in adjacent
/// segments (one day and one dusk frame for the HOG workload), chosen by
/// the seed.
std::vector<std::size_t> reference_frames(std::size_t n, std::uint64_t seed) {
  const std::size_t first = seed % n;
  return {first, (first + kFramesPerSegment) % n};
}

/// Check the oracle outputs of the sampled frames against the retained
/// reference implementations; returns the mismatching frame indices.
std::vector<std::size_t> reference_mismatches(const Rig& rig,
                                              const PixelLoop& loop,
                                              const Options& opt) {
  const core::AdaptiveSystem& system = *rig.system;
  std::vector<std::size_t> bad;
  for (const std::size_t k : reference_frames(rig.frames.size(), opt.seed)) {
    const PixelFrame& f = rig.frames[k];
    bool ok = false;
    if (opt.kind == Kind::Dark) {
      const det::DarkVehicleDetector& dark = system.models().dark;
      const img::ImageU8 mask = dark.preprocess(f.rgb);
      const auto ref_lights = dark.detect_taillights_reference(mask);
      std::vector<det::Detection> ref = dark.pair_taillights(ref_lights);
      const double s = dark.config().downsample_factor;
      for (det::Detection& d : ref) d.box = img::scaled(d.box, s, s);
      ok = same_lights(dark.detect_taillights(mask), ref_lights) &&
           same_detections(loop.oracle[k], ref);
    } else {
      const det::HogSvmModel* model[] = {
          &system.models().vehicle_model_for(f.meta.condition)};
      det::SlidingWindowParams serial = system.config().sliding;
      serial.pool = nullptr;
      ok = same_detections(
          loop.oracle[k], det::detect_multiscale_multi_reference(
                              img::rgb_to_gray(f.rgb), model, serial));
    }
    if (!ok) bad.push_back(k);
  }
  return bad;
}

// --- serving workload: closed loop of whole-batch serves ------------------

struct ServeLoop {
  std::vector<runtime::StreamResult> first;  ///< first serve's results
  std::vector<double> p50_ms, p90_ms;        ///< per serve, program histogram
  long long frames = 0;
  int serves = 0;
  double wall_s = 0.0;
  long long failed = 0;
  obs::MetricsSnapshot last_counters;  ///< registry after the last serve
};

/// Serve every stream to completion, repeatedly, for `seconds` (at least
/// once). Each serve's reports must equal the first serve's, and no stream
/// may drop more vehicle frames than it reconfigured.
ServeLoop run_serve_loop(const Rig& rig, const Options& opt) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  ServeLoop loop;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  do {
    registry.reset_values();
    std::vector<runtime::StreamResult> results;
    try {
      results = rig.server->serve_sequences(rig.streams);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve threw: %s\n", e.what());
    }
    registry.rollup();
    const obs::Histogram& latency =
        registry.histogram("runtime.frame.latency_ns");
    const std::vector<double> latency_ms = histogram_samples_ms(latency);
    loop.p50_ms.push_back(quantile(latency_ms, 0.5));
    loop.p90_ms.push_back(quantile(latency_ms, 0.9));
    loop.last_counters = registry.snapshot();
    // Planted in the stream the oracle checks, so even a one-serve run
    // catches it.
    const std::size_t checked = opt.seed % rig.streams.size();
    if (opt.inject_wrong && loop.serves == 0 && checked < results.size() &&
        !results[checked].report.frames.empty())
      ++results[checked].report.frames[0].vehicle_match.false_positives;
    if (loop.serves == 0) loop.first = results;
    ++loop.serves;

    for (std::size_t s = 0; s < rig.streams.size(); ++s) {
      const long long expected = rig.streams[s].frame_count();
      loop.frames += expected;
      if (s >= results.size() || s >= loop.first.size()) {
        loop.failed += expected;  // stream missing: every frame failed
        continue;
      }
      const core::AdaptiveRunReport& got = results[s].report;
      const core::AdaptiveRunReport& want = loop.first[s].report;
      long long bad = expected - static_cast<long long>(got.frames.size());
      for (std::size_t i = 0; i < got.frames.size(); ++i)
        bad += (i < want.frames.size() && same_report(got.frames[i],
                                                      want.frames[i]))
                   ? 0
                   : 1;
      // The paper's cost is one dropped vehicle frame per reconfiguration;
      // anything beyond it (or any backpressure drop) is a failed frame.
      bad += std::max(0, got.dropped_vehicle_frames() - got.reconfig_count());
      bad += static_cast<long long>(results[s].backpressure_drops);
      loop.failed += std::min(bad, expected);
    }
  } while (Clock::now() < stop);
  loop.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return loop;
}

/// Frames of the checked stream whose served report differs from the
/// sequential AdaptiveSystem::run() oracle (one stream, chosen by seed).
long long oracle_mismatches(const Rig& rig, const ServeLoop& loop,
                            const Options& opt, std::size_t& checked_stream) {
  checked_stream = opt.seed % rig.streams.size();
  const core::AdaptiveRunReport oracle =
      rig.system->run(rig.streams[checked_stream]);
  if (checked_stream >= loop.first.size())
    return static_cast<long long>(oracle.frames.size());
  const core::AdaptiveRunReport& served = loop.first[checked_stream].report;
  long long bad = 0;
  for (std::size_t i = 0; i < oracle.frames.size(); ++i)
    bad += (i < served.frames.size() &&
            same_report(served.frames[i], oracle.frames[i]))
               ? 0
               : 1;
  if (served.reconfig_count() != oracle.reconfig_count()) bad = std::max(bad, 1LL);
  return bad;
}

// --- end-to-end run -------------------------------------------------------

/// Set up kSetups times (setup_s is the median), measure on the last rig,
/// then check outputs outside the timed region.
Result end_to_end(const Options& opt, runtime::ThreadPool& pool) {
  Result r;
  std::vector<double> setup_s;
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    // Release the previous set-up before building the next: the server
    // first, since it refers to the system.
    rig.server.reset();
    rig = Rig{};
    const Clock::time_point t0 = Clock::now();
    rig = set_up(opt, pool);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  std::printf("%s seed=%llu: %d set-ups, %d compute threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              kSetups, compute_threads());

  if (opt.kind == Kind::Serve) {
    const ServeLoop loop = run_serve_loop(rig, opt);
    std::size_t checked = 0;
    const long long oracle_bad = oracle_mismatches(rig, loop, opt, checked);
    r.attempted = loop.frames;
    // An oracle mismatch in the first serve repeats in every serve (each is
    // checked equal to the first).
    r.failed = std::min(loop.frames, loop.failed + oracle_bad * loop.serves);
    // The serving frame time is the detect stage's per-frame task
    // (evaluate_frame: render + detect + match), read from the program's
    // stage histogram; ingest-to-report latency in this closed batch loop
    // is mostly queue wait and is reported beside it.
    const std::vector<double> detect_ms =
        histogram_samples_ms(rig.server->metrics().detect.latency());
    r.metric("setup_s", median(setup_s), "s");
    r.metric("fps", static_cast<double>(loop.frames) / loop.wall_s, "1/s");
    r.metric("frame_ms_p50", quantile(detect_ms, 0.5), "ms");
    r.metric("frame_ms_p90", quantile(detect_ms, 0.9), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Quality q;
    for (const runtime::StreamResult& s : loop.first)
      for (const core::AdaptiveFrameReport& f : s.report.frames)
        if (f.vehicle_processed) q.add(f.sensed, f.vehicle_match);
    q.report(r);
    r.note("serves", loop.serves);
    r.note("frame_samples", static_cast<double>(detect_ms.size()));
    r.note("latency_ms_p50", median(loop.p50_ms), "ms");
    r.note("latency_ms_p90", median(loop.p90_ms), "ms");
    r.note("oracle_stream", static_cast<double>(checked));
    r.note("oracle_mismatched_frames", static_cast<double>(oracle_bad));
  } else {
    const PixelLoop loop = run_pixel_loop(rig, opt);
    const std::vector<std::size_t> bad = reference_mismatches(rig, loop, opt);
    r.attempted = static_cast<long long>(loop.frame_ms.size());
    r.failed = loop.failed;
    for (const std::size_t k : bad) r.failed += std::max(1LL, loop.visits[k]);
    r.failed = std::min(r.failed, std::max(r.attempted, 1LL));
    r.metric("setup_s", median(setup_s), "s");
    r.metric("fps", static_cast<double>(loop.frame_ms.size()) / loop.wall_s, "1/s");
    r.metric("frame_ms_p50", quantile(loop.frame_ms, 0.5), "ms");
    r.metric("frame_ms_p90", quantile(loop.frame_ms, 0.9), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Quality q;
    for (std::size_t k = 0; k < rig.frames.size(); ++k)
      q.add(rig.frames[k].meta.condition,
            det::match_detections(loop.oracle[k],
                                  truth_boxes(rig.frames[k].meta.scene),
                                  rig.system->config().match_iou));
    q.report(r);
    r.note("frame_samples", static_cast<double>(loop.frame_ms.size()));
    r.note("distinct_frames", static_cast<double>(rig.frames.size()));
    r.note("reference_mismatched_frames", static_cast<double>(bad.size()));
  }
  r.note("failed_frac", r.attempted > 0 ? static_cast<double>(r.failed) /
                                              static_cast<double>(r.attempted)
                                        : 0.0);
  r.note("compute_threads", compute_threads());
  std::printf("  failed %lld of %lld frames\n", r.failed, r.attempted);
  return r;
}

// --- traced run: per-layer pricing from outside ---------------------------

/// Per-frame samples of every layer, priced by calling the public function
/// of each layer on the workload's frames.
struct LayerSamples {
  std::vector<double> gray, multiscale, resize, cells, blocks, nms, scoring;
  std::vector<double> preprocess, ycbcr, roi_mask, downsample, close_ms,
      taillights, find_blobs, dbn_scan, pair;
  std::vector<double> render;
  std::vector<double> path;  ///< the frame's own pipeline (+ render, serving)
  double windows = 0, blocks_normalised = 0, levels = 0, raw = 0, dets = 0;
  double blobs = 0, dbn_windows = 0, lights = 0;
  int hog_frames = 0, dark_frames = 0;
};

/// The scanner's pyramid schedule (detect_multiscale_multi's plan): level
/// sizes shrink by scale_step until the window no longer fits.
std::vector<img::Size> pyramid_sizes(img::Size frame, img::Size window,
                                     const det::SlidingWindowParams& p) {
  std::vector<img::Size> out;
  double scale = 1.0;
  for (int level = 0; level < p.max_levels; ++level, scale *= p.scale_step) {
    const img::Size s{static_cast<int>(std::lround(frame.width / scale)),
                      static_cast<int>(std::lround(frame.height / scale))};
    if (s.width < window.width || s.height < window.height) break;
    out.push_back(s);
  }
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Price the HOG path on one frame: colour conversion, the whole scan, and
/// inside it resize / cell grid / block grid / NMS on the same pyramid
/// levels with the scan's pool; window scoring is the scan's remainder.
double price_hog(const core::AdaptiveSystem& system, const img::RgbImage& rgb,
                 data::LightingCondition condition, runtime::ThreadPool& pool,
                 LayerSamples& s) {
  const det::HogSvmModel& model =
      system.models().vehicle_model_for(condition);
  const det::SlidingWindowParams& sliding = system.config().sliding;
  img::ImageU8 gray;
  const double gray_ms = time_ms([&] { gray = img::rgb_to_gray(rgb); });

  const std::uint64_t w0 = counter("detect.hogsvm.windows_scanned");
  const std::uint64_t b0 = counter("detect.hogsvm.blocks_normalised");
  const std::uint64_t l0 = counter("detect.hogsvm.levels");
  const std::uint64_t r0 = counter("detect.hogsvm.raw_detections");
  std::vector<det::Detection> dets;
  const double scan_ms =
      time_ms([&] { dets = det::detect_multiscale(gray, model, sliding); });
  s.windows += static_cast<double>(counter("detect.hogsvm.windows_scanned") - w0);
  s.blocks_normalised +=
      static_cast<double>(counter("detect.hogsvm.blocks_normalised") - b0);
  s.levels += static_cast<double>(counter("detect.hogsvm.levels") - l0);
  s.raw += static_cast<double>(counter("detect.hogsvm.raw_detections") - r0);
  s.dets += static_cast<double>(dets.size());

  const std::vector<img::Size> sizes =
      pyramid_sizes(gray.size(), model.window, sliding);
  const int n = static_cast<int>(sizes.size());
  std::vector<img::ImageU8> levels(sizes.size());
  std::vector<hog::CellGrid> grids(sizes.size());
  std::vector<hog::BlockGrid> block_grids(sizes.size());
  levels[0] = gray;
  const double resize_ms = time_ms([&] {
    pool.run_indexed(n - 1, [&](int i) {
      levels[static_cast<std::size_t>(i + 1)] =
          img::resize_bilinear(gray, sizes[static_cast<std::size_t>(i + 1)]);
    });
  });
  const double cells_ms = time_ms([&] {
    pool.run_indexed(n, [&](int i) {
      grids[static_cast<std::size_t>(i)] = hog::compute_cell_grid(
          levels[static_cast<std::size_t>(i)], model.hog);
    });
  });
  const double blocks_ms = time_ms([&] {
    pool.run_indexed(n, [&](int i) {
      block_grids[static_cast<std::size_t>(i)] = hog::compute_block_grid(
          grids[static_cast<std::size_t>(i)], model.hog);
    });
  });
  // The raw (pre-NMS) detections: the same scan with suppression disabled.
  det::SlidingWindowParams keep_all = sliding;
  keep_all.nms_iou = 1.0;
  const std::vector<det::Detection> raw =
      det::detect_multiscale(gray, model, keep_all);
  std::vector<det::Detection> kept;
  const double nms_ms = time_ms(
      [&] { kept = det::non_max_suppression(raw, sliding.nms_iou); });

  s.gray.push_back(gray_ms);
  s.multiscale.push_back(scan_ms);
  s.resize.push_back(resize_ms);
  s.cells.push_back(cells_ms);
  s.blocks.push_back(blocks_ms);
  s.nms.push_back(nms_ms);
  s.scoring.push_back(scan_ms - resize_ms - cells_ms - blocks_ms - nms_ms);
  ++s.hog_frames;
  return gray_ms + scan_ms;
}

/// Price the dark path on one frame: preprocess (and its colour conversion,
/// threshold, OR-downsample and closing), taillight detection (blob
/// labelling; DBN scan as the remainder) and pairing.
double price_dark(const core::AdaptiveSystem& system, const img::RgbImage& rgb,
                  LayerSamples& s) {
  const det::DarkVehicleDetector& dark = system.models().dark;
  const det::DarkDetectorConfig& cfg = dark.config();
  img::ImageU8 mask;
  const double pre_ms = time_ms([&] { mask = dark.preprocess(rgb); });

  // preprocess() step by step, mirroring its branches.
  img::YcbcrImage ycc;
  const double ycc_ms = time_ms([&] { ycc = img::rgb_to_ycbcr(rgb); });
  img::ImageU8 roi;
  const double roi_ms =
      time_ms([&] { roi = img::taillight_roi_mask(ycc, cfg.threshold); });
  img::ImageU8 small;
  const int f = cfg.downsample_factor;
  const double down_ms = time_ms([&] {
    if (f > 1 && roi.width() % f == 0 && roi.height() % f == 0)
      small = img::downsample_or(roi, f);
    else if (f > 1)
      small = img::resize_nearest(
          roi, {std::max(1, roi.width() / f), std::max(1, roi.height() / f)});
    else
      small = roi;
    if (cfg.median_prefilter) small = img::median3x3(small);
  });
  img::ImageU8 closed;
  const double close_ms =
      time_ms([&] { closed = img::close(small, cfg.closing); });

  const std::uint64_t bl0 = counter("detect.dark.blobs");
  const std::uint64_t w0 = counter("detect.dark.dbn_windows");
  std::vector<det::TaillightDetection> lights;
  const double lights_ms =
      time_ms([&] { lights = dark.detect_taillights(mask); });
  s.blobs += static_cast<double>(counter("detect.dark.blobs") - bl0);
  s.dbn_windows += static_cast<double>(counter("detect.dark.dbn_windows") - w0);
  s.lights += static_cast<double>(lights.size());
  std::vector<img::Blob> blobs;
  const double blobs_ms = time_ms([&] {
    blobs = img::find_blobs(mask, img::Connectivity::Eight, cfg.min_blob_area);
  });
  std::vector<det::Detection> pairs;
  const double pair_ms =
      time_ms([&] { pairs = dark.pair_taillights(lights); });

  s.preprocess.push_back(pre_ms);
  s.ycbcr.push_back(ycc_ms);
  s.roi_mask.push_back(roi_ms);
  s.downsample.push_back(down_ms);
  s.close_ms.push_back(close_ms);
  s.taillights.push_back(lights_ms);
  s.find_blobs.push_back(blobs_ms);
  s.dbn_scan.push_back(lights_ms - blobs_ms);
  s.pair.push_back(pair_ms);
  ++s.dark_frames;
  return pre_ms + lights_ms + pair_ms;
}

/// Price every layer of both front ends on `frames`, kPricingPasses times;
/// the frame's own path (the pipeline its condition selects) is recorded
/// per frame and pass. Like the timed loop, each frame runs on the next CPU.
void price_layers(const core::AdaptiveSystem& system,
                  const std::vector<PixelFrame>& frames,
                  runtime::ThreadPool& pool, LayerSamples& s) {
  CpuRotation rotation;
  for (int pass = 0; pass < kPricingPasses; ++pass) {
    for (const PixelFrame& f : frames) {
      rotation.next();
      const double hog_ms =
          price_hog(system, f.rgb, f.meta.condition, pool, s);
      const double dark_ms = price_dark(system, f.rgb, s);
      s.path.push_back(f.meta.condition == data::LightingCondition::Dark
                           ? dark_ms
                           : hog_ms);
    }
  }
}

/// Runtime and core layers of a server that has served the workload's
/// streams (a pixel workload's probe drive, or the serving workload), with
/// `counters` the registry after its last serve.
void add_serving_layers(Result& r, const runtime::StreamServer& server,
                        const obs::MetricsSnapshot& counters) {
  const runtime::RuntimeMetrics& m = server.metrics();
  for (const runtime::StageMetrics* st :
       {&m.ingest, &m.control, &m.detect, &m.report})
    r.metric("runtime." + st->name() + "_stage_ms_p50",
             quantile(histogram_samples_ms(st->latency()), 0.5), "ms");
  std::size_t high_water = 0;
  for (const runtime::StageSnapshot& st : m.snapshot())
    high_water = std::max(high_water, st.queue_high_water);
  r.metric("runtime.queue_high_water", static_cast<double>(high_water),
           "count");
  r.metric("core.mode_switches",
           static_cast<double>(counters.counter("core.mode_switches")), "count");
  r.metric("core.reconfigs_triggered",
           static_cast<double>(counters.counter("core.reconfigs_triggered")),
           "count");
  r.metric("runtime.reconfig_drops",
           static_cast<double>(counters.counter("runtime.reconfig_drops")),
           "count");
}

void add_layer_metrics(Result& r, const LayerSamples& s) {
  const auto per = [](double total, int frames) {
    return frames > 0 ? total / frames : 0.0;
  };
  r.metric("image.rgb_to_gray_ms", median(s.gray), "ms");
  r.metric("detect.detect_multiscale_ms", median(s.multiscale), "ms");
  r.metric("image.resize_bilinear_ms", median(s.resize), "ms");
  r.metric("hog.cell_grid_ms", median(s.cells), "ms");
  r.metric("hog.block_grid_ms", median(s.blocks), "ms");
  r.metric("detect.nms_ms", median(s.nms), "ms");
  r.metric("ml.window_scoring_ms", median(s.scoring), "ms");
  r.metric("detect.hogsvm.windows_scanned", per(s.windows, s.hog_frames), "count");
  r.metric("detect.hogsvm.blocks_normalised",
           per(s.blocks_normalised, s.hog_frames), "count");
  r.metric("detect.hogsvm.levels", per(s.levels, s.hog_frames), "count");
  r.metric("detect.nms_keep_ratio", s.raw > 0 ? s.dets / s.raw : 0.0, "ratio");
  r.metric("detect.dark_preprocess_ms", median(s.preprocess), "ms");
  r.metric("image.rgb_to_ycbcr_ms", median(s.ycbcr), "ms");
  r.metric("image.taillight_roi_mask_ms", median(s.roi_mask), "ms");
  r.metric("image.downsample_or_ms", median(s.downsample), "ms");
  r.metric("image.close_ms", median(s.close_ms), "ms");
  r.metric("detect.dark_taillights_ms", median(s.taillights), "ms");
  r.metric("image.find_blobs_ms", median(s.find_blobs), "ms");
  r.metric("ml.dbn_scan_ms", median(s.dbn_scan), "ms");
  r.metric("detect.dark_pair_ms", median(s.pair), "ms");
  r.metric("detect.dark.blobs", per(s.blobs, s.dark_frames), "count");
  r.metric("detect.dark.dbn_windows", per(s.dbn_windows, s.dark_frames), "count");
  r.metric("detect.dark.taillight_yield",
           s.dbn_windows > 0 ? s.lights / s.dbn_windows : 0.0, "ratio");
  r.metric("datasets.render_scene_ms", median(s.render), "ms");
}

Result traced(const Options& opt, runtime::ThreadPool& pool) {
  Result r;
  Rig rig = set_up(opt, pool);
  LayerSamples s;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::printf("%s seed=%llu: traced run, %d compute threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              compute_threads());

  double frame_ms_p50 = 0.0;
  if (opt.kind == Kind::Serve) {
    const ServeLoop loop = run_serve_loop(rig, opt);
    r.attempted = loop.frames;
    r.failed = loop.failed;
    // Price the pixel layers on a sample of the served frames: one frame
    // per segment of every stream, at a different offset per stream.
    std::vector<PixelFrame> frames;
    for (std::size_t st = 0; st < rig.streams.size(); ++st) {
      std::vector<int> picks;
      for (int seg = 0; seg * kServeFramesPerSegment <
                        rig.streams[st].frame_count();
           ++seg)
        picks.push_back(seg * kServeFramesPerSegment +
                        static_cast<int>(st) % kServeFramesPerSegment);
      for (PixelFrame& f : render_frames(rig.streams[st], picks, pool))
        frames.push_back(std::move(f));
    }
    for (const PixelFrame& f : frames)
      s.render.push_back(
          time_ms([&] { (void)data::render_scene(f.meta.scene); }));
    price_layers(*rig.system, frames, pool, s);
    add_layer_metrics(r, s);
    add_serving_layers(r, *rig.server, loop.last_counters);
    // The serving frame is the detect stage's task: render + detect path.
    for (std::size_t k = 0; k < s.path.size(); ++k)
      s.path[k] += s.render[k % frames.size()];
    frame_ms_p50 = quantile(
        histogram_samples_ms(rig.server->metrics().detect.latency()), 0.5);
  } else {
    const PixelLoop loop = run_pixel_loop(rig, opt);
    r.attempted = static_cast<long long>(loop.frame_ms.size());
    r.failed = loop.failed;
    frame_ms_p50 = quantile(loop.frame_ms, 0.5);
    // render_scene at 1080p costs ~0.5 s: price it on one frame per segment.
    for (std::size_t k = 0; k < rig.frames.size(); k += kFramesPerSegment)
      s.render.push_back(time_ms(
          [&] { (void)data::render_scene(rig.frames[k].meta.scene); }));
    price_layers(*rig.system, rig.frames, pool, s);
    add_layer_metrics(r, s);
    // Probe: a short stretch of the workload's own drive, served.
    const data::DriveSequence probe(
        pixel_spec(opt.kind, opt.seed, kProbeFramesPerSegment));
    const std::unique_ptr<runtime::StreamServer> server =
        make_server(*rig.system, pool);
    registry.reset_values();
    (void)server->serve_sequences({probe});
    registry.rollup();
    add_serving_layers(r, *server, registry.snapshot());
    r.attempted += probe.frame_count();
  }
  r.metric("frame.traced_ms_p50", frame_ms_p50, "ms");
  r.metric("frame.unattributed_ms", frame_ms_p50 - median(s.path), "ms");
  r.note("layer_frames", static_cast<double>(s.path.size()));
  return r;
}

// --- command line ---------------------------------------------------------

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (a == "--inject-wrong-detection") {
      opt.inject_wrong = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (opt.workload == "hog_1080p")
    opt.kind = Kind::Hog;
  else if (opt.workload == "dark_1080p")
    opt.kind = Kind::Dark;
  else if (opt.workload == "drive_serve_360p")
    opt.kind = Kind::Serve;
  else
    throw std::invalid_argument("unknown workload " + opt.workload);
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    runtime::ThreadPool pool(compute_threads() - 1);
    const Result r = opt.trace ? traced(opt, pool) : end_to_end(opt, pool);
    print_json(r, opt);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frame_budget: %s\n", e.what());
    return 2;
  }
}

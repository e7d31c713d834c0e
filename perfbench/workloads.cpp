// The three closed-loop workloads.
//
// Untraced run: set-up is timed kSetupsBefore times (each torn down before
// the next), reference outputs are computed for every pooled input, a
// fixed-count warm-up runs untimed, one closed loop is measured for
// --seconds, and set-up is timed kSetupsAfter more times; setup_s is the
// median of all of them.
//
// Traced run: one set-up, then the window is split between an untraced
// block and a traced block of the same loop (their p50 ratio is the tracing
// overhead), and the layers below are timed by the benchmark's own spans:
// a TimedUpscaler decorator where a layer calls an Upscaler, and ladder
// rungs that call the lower layers directly on the workload's own inputs.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/defense.h"
#include "data/synthetic_div2k.h"
#include "dist/process.h"
#include "dist/shard.h"
#include "dist/wire.h"
#include "models/fsrcnn.h"
#include "models/sesr.h"
#include "perfbench.h"
#include "preprocess/preprocess.h"
#include "quant/quantized_model.h"
#include "runtime/session.h"
#include "serve/server.h"
#include "tensor/rng.h"
#include "tensor/simd/dispatch.h"

namespace perfbench {
namespace {

using sesr::Shape;
using sesr::Tensor;

/// Set-ups timed per untraced run: some before the measured window (the
/// last one serves it) and the rest after it, so the median spans more of
/// the run than one burst of set-ups would.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 6;
/// Model weights are fixed; only the inputs follow the workload seed.
constexpr uint64_t kWeightSeed = 0x5e5;
/// Upper bound on a warm-up's duration (warm-ups stop on their count).
constexpr double kWarmupSeconds = 120.0;

// ---- per-layer metrics ----------------------------------------------------

/// Every per-layer metric, the workloads whose layers it measures, and its
/// unit. A traced run reports all of them; on a workload that does not use
/// the layer the value is 0 and the text report says so.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* workloads;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"preprocess.jpeg_ms", "ms", "edge_frames"},
    {"preprocess.wavelet_ms", "ms", "edge_frames"},
    {"core.self_ms", "ms", "edge_frames"},
    {"models.upscale_ms", "ms", "edge_frames"},
    {"models.upscale_batch_us", "us", "tiles_remote"},
    {"models.self_ms", "ms", "edge_frames tiles_remote"},
    {"models.plan_hit_frac", "fraction", "mixed_local"},
    {"runtime.run_ms", "ms", "edge_frames"},
    {"runtime.run_us", "us", "tiles_remote"},
    {"runtime.arena_bytes", "bytes", "edge_frames"},
    {"runtime.fallback_ops", "count", "mixed_local"},
    {"tensor.macs_per_req", "count", "edge_frames tiles_remote mixed_local"},
    {"tensor.gmac_per_s", "GMAC/s", "edge_frames tiles_remote"},
    {"serve.rpc_p50_ms", "ms", "tiles_remote"},
    {"serve.cpu_ms_per_req", "ms", "tiles_remote"},
    {"serve.mean_batch", "images", "tiles_remote mixed_local"},
    {"serve.dispatch_ms.m5", "ms", "mixed_local"},
    {"serve.dispatch_ms.m5_fp32", "ms", "mixed_local"},
    {"serve.dispatch_ms.fsrcnn", "ms", "mixed_local"},
    {"serve.wait_ms", "ms", "mixed_local"},
    {"serve.class_p50_ms.m5_6x6", "ms", "mixed_local"},
    {"serve.class_p50_ms.m5_32x32", "ms", "mixed_local"},
    {"serve.class_p50_ms.m5_fp32_32x32", "ms", "mixed_local"},
    {"serve.class_p50_ms.fsrcnn_6x6", "ms", "mixed_local"},
    {"serve.publish_ms", "ms", "mixed_local"},
    {"dist.hop_ms", "ms", "tiles_remote"},
    {"dist.hop_cpu_ms_per_req", "ms", "tiles_remote"},
    {"dist.frontend_cpu_ms_per_req", "ms", "tiles_remote"},
    {"dist.shard_cpu_ms_per_req", "ms", "tiles_remote"},
    {"dist.encode_us", "us", "tiles_remote"},
    {"dist.decode_us", "us", "tiles_remote"},
    {"dist.bytes_per_req", "bytes", "tiles_remote"},
    {"dist.retries", "count", "tiles_remote"},
    {"trace.overhead_pct", "%", "edge_frames tiles_remote mixed_local"},
};

bool measures(const LayerMetric& metric, const std::string& workload) {
  return (std::string(" ") + metric.workloads + " ").find(" " + workload + " ") !=
         std::string::npos;
}

/// Emit every per-layer metric in table order. `values` must hold exactly
/// the metrics the table assigns to `workload`.
void emit_layers(Report& report, const std::string& workload,
                 const std::map<std::string, double>& values) {
  report.line("per-layer metrics (traced run; spans and ladder rungs timed by the benchmark):");
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    const bool here = measures(metric, workload);
    if (here != (it != values.end()))
      throw std::logic_error(std::string("per-layer metric ") + metric.name +
                             (here ? " was not measured" : " measured on the wrong workload"));
    const double value = here ? it->second : 0.0;
    report.metric(metric.name, value, metric.unit);
    report.line(here ? format("  %-34s %14.6g %-8s (%s)", metric.name, value, metric.unit,
                              workload.c_str())
                     : format("  %-34s %14s %-8s (layer idle on %s; measured on %s)",
                              metric.name, "0", metric.unit, workload.c_str(),
                              metric.workloads));
  }
}

// ---- shared helpers -------------------------------------------------------

sesr::serve::ServeReply ok_reply(Tensor output) {
  sesr::serve::ServeReply reply;
  reply.status = sesr::serve::ServeStatus::kOk;
  reply.output = std::move(output);
  return reply;
}

/// Run `build` `repeats` times, timing each; every earlier set-up is torn
/// down before the next one is timed. Returns the last (empty when repeats
/// is 0).
template <class Build>
auto timed_setups(int repeats, std::vector<double>& seconds, const Build& build) {
  decltype(build()) stack{};
  for (int i = 0; i < repeats; ++i) {
    stack = {};
    const int64_t start = now_ns();
    stack = build();
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return stack;
}

/// `loop` run for `seconds` (untraced unless `spans` is given).
LoopResult run_for(Loop loop, double seconds, SpanLog* spans = nullptr) {
  loop.seconds = seconds;
  loop.spans = spans;
  return closed_loop(loop);
}

/// Warm-up: `count` requests of `loop`, untimed; any wrong reply fails the
/// run.
void warm_up(Report& report, Loop loop, int64_t count) {
  loop.seconds = kWarmupSeconds;
  loop.max_requests = count;
  loop.capacity = count;
  const LoopResult warm = closed_loop(loop);
  if (warm.ok != warm.attempted) {
    report.correct = false;
    for (const std::string& error : warm.errors) report.line("warm-up failure: " + error);
  }
}

void record_failures(Report& report, const LoopResult& loop) {
  report.attempted += loop.attempted;
  report.failed += loop.attempted - loop.ok;
  if (loop.ok != loop.attempted) report.correct = false;
  for (const std::string& error : loop.errors) report.line("failure: " + error);
}

/// The five end-to-end metrics plus the ungated diagnostics.
void emit_end_to_end(Report& report, const std::vector<double>& setup_s, const LoopResult& loop,
                     double cpu_s, double peak_rss_mb) {
  record_failures(report, loop);
  const double completed = static_cast<double>(std::max<int64_t>(loop.ok, 1));
  report.metric("setup_s", median(setup_s), "s");
  const std::vector<double> latency_ms = loop.latency_ms();
  report.metric("p50_ms", median(latency_ms), "ms");
  report.metric("cpu_ms_per_req", 1e3 * cpu_s / completed, "ms");
  report.metric("ok_frac",
                static_cast<double>(loop.ok) / static_cast<double>(std::max<int64_t>(loop.attempted, 1)),
                "fraction");
  report.metric("peak_rss_mb", peak_rss_mb, "MB");

  std::string setups;
  for (const double s : setup_s) setups += format(" %.4f", s);
  const Tail tail = tail_of(latency_ms);
  report.line(format("diag.requests: attempted %lld, ok %lld, failed %lld",
                     static_cast<long long>(loop.attempted), static_cast<long long>(loop.ok),
                     static_cast<long long>(loop.attempted - loop.ok)));
  report.line(format("diag.throughput_rps: %.1f (ok / %.3f s window incl. drain)",
                     static_cast<double>(loop.ok) / loop.wall_s, loop.wall_s));
  report.line(format("diag.tail_ms: p%g = %.4f ms (%lld samples)", tail.pct, tail.value,
                     static_cast<long long>(tail.samples)));
  report.line(format("diag.host_steal_pct: %.2f (share of all vCPU time the hypervisor stole "
                     "during the window; high values mark a contended host)",
                     100.0 * loop.host_steal));
  report.line("diag.setup_s samples:" + setups);
}

/// Records the run's fixed settings, with the kernel tier `plan` compiled for.
void common_settings(Report& report, const Args& args, const sesr::runtime::Program& plan) {
  report.line(format("settings: seed %llu, %d s window, SESR_NUM_THREADS=%lld, kernel tier %s",
                     static_cast<unsigned long long>(args.seed), args.seconds,
                     static_cast<long long>(sesr::core::config_int64("SESR_NUM_THREADS", 0)),
                     sesr::simd::variant_name(plan.kernel_variant())));
}

std::vector<Shape> batch_shapes(int64_t max_batch, int64_t lr) {
  std::vector<Shape> shapes;
  for (int64_t batch = 1; batch <= max_batch; ++batch) shapes.push_back(Shape({batch, 3, lr, lr}));
  return shapes;
}

/// Float-domain ops left in an int8 program (layers without integer kernels).
int64_t float_ops(const sesr::runtime::Program& plan) {
  using Kind = sesr::runtime::Op::Kind;
  int64_t count = 0;
  for (const sesr::runtime::Op& op : plan.ops())
    if (op.kind == Kind::kLayer || op.kind == Kind::kAdd || op.kind == Kind::kScale ||
        op.kind == Kind::kConcat)
      ++count;
  return count;
}

void finish_trace(Report& report, const Args& args, const SpanLog& spans) {
  const std::string path = format("%s/%s-seed%llu.trace.json", args.out_dir.c_str(),
                                  args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  const std::vector<std::string> problems = write_span_file(spans, path);
  report.line(format("span file: %s (%zu spans, Chrome trace JSON)", path.c_str(),
                     spans.records().size()));
  for (const std::string& problem : problems) report.line("span file problem: " + problem);
  if (!problems.empty()) report.correct = false;
}

double overhead_pct(const std::vector<double>& traced_ms, const std::vector<double>& plain_ms) {
  return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0);
}

// ---- edge_frames ----------------------------------------------------------

constexpr int64_t kFrameLr = 128;
constexpr int kFramePool = 8;
constexpr int64_t kFrameWarmup = 8;
/// Frames per second the sample store holds without growing.
constexpr int64_t kFrameRateCap = 200;

struct EdgeStack {
  std::shared_ptr<sesr::models::NetworkUpscaler> upscaler;
  std::unique_ptr<sesr::core::DefensePipeline> pipeline;
};

EdgeStack build_edge(const std::vector<Tensor>& calibration) {
  auto network = std::make_shared<sesr::models::Sesr>(sesr::models::SesrConfig::m5(),
                                                      sesr::models::Sesr::Form::kInference);
  sesr::Rng rng(kWeightSeed);
  network->init_weights(rng);
  EdgeStack stack;
  stack.upscaler = std::make_shared<sesr::models::NetworkUpscaler>("SESR-M5", network);
  sesr::core::DefenseOptions options;
  options.jpeg = {.quality = 75, .chroma_subsample = true};
  options.wavelet = {.family = sesr::preprocess::WaveletFamily::kDaubechies4,
                     .levels = 2,
                     .threshold_scale = 1.0f};
  stack.pipeline = std::make_unique<sesr::core::DefensePipeline>(stack.upscaler, options);
  stack.pipeline->calibrate_int8(calibration);
  stack.upscaler->warmup(Shape({1, 3, kFrameLr, kFrameLr}), 1);
  return stack;
}

}  // namespace

Report run_edge_frames(const Args& args) {
  Report report;
  report.line(
      "edge_frames: closed loop, 1 camera, 1 frame in flight. DefensePipeline: JPEG q75 4:2:0 "
      "-> db4 wavelet (2 levels) -> collapsed SESR-M5 int8 calibrated through the pipeline, "
      "128x128 LR frames, no classifier.");
  report.line(
      "  why: the paper's deployment path, and the only workload where preprocess and "
      "large-shape runtime/tensor compute dominate; serve and dist are idle.");

  const sesr::data::SyntheticDiv2k source({.hr_size = 2 * kFrameLr, .scale = 2, .seed = args.seed});
  std::vector<Tensor> frames;
  for (int i = 0; i < kFramePool; ++i)
    frames.push_back(source.get(i).lr.reshaped(Shape({1, 3, kFrameLr, kFrameLr})));
  const std::vector<Tensor> calibration = {source.batch(kFramePool, 2).lr,
                                           source.batch(kFramePool + 2, 2).lr};

  std::vector<double> setup_s;
  const auto build = [&] { return build_edge(calibration); };
  EdgeStack stack = timed_setups(args.trace ? 1 : kSetupsBefore, setup_s, build);
  const Shape frame_shape({1, 3, kFrameLr, kFrameLr});
  const auto plan = stack.upscaler->plan_for(frame_shape);
  common_settings(report, args, *plan);

  std::vector<Tensor> references;
  for (const Tensor& frame : frames) references.push_back(stack.pipeline->apply(frame));

  sesr::Rng draw_rng(args.seed);
  Loop loop;
  loop.in_flight = 1;
  loop.capacity = args.seconds * kFrameRateCap;
  loop.next = [&] { return Draw{0, static_cast<int32_t>(draw_rng.randint(0, kFramePool - 1))}; };
  loop.check = [&](const Draw& draw, const sesr::serve::ServeReply& reply) {
    return reply.ok() && bit_identical(reply.output, references[static_cast<size_t>(draw.index)]);
  };
  loop.submit = [&](const Draw& draw, sesr::serve::ServeCallback done) {
    done(ok_reply(stack.pipeline->apply(frames[static_cast<size_t>(draw.index)])));
  };
  warm_up(report, loop, kFrameWarmup);

  if (!args.trace) {
    const ProcUsage before = self_usage();
    const LoopResult result = run_for(loop, args.seconds);
    const ProcUsage after = self_usage();
    stack = {};
    timed_setups(kSetupsAfter, setup_s, build);
    emit_end_to_end(report, setup_s, result, after.cpu_s - before.cpu_s, after.hwm_mb);
    report.line(format("diag.fps: %.2f (1000 / p50_ms)", 1e3 / median(result.latency_ms())));
    return report;
  }

  SpanLog spans;
  const sesr::core::DefensePipeline traced_pipeline(
      std::make_shared<TimedUpscaler>(stack.upscaler, spans, "models.upscale"),
      stack.pipeline->options());
  const sesr::preprocess::JpegCompressor jpeg(stack.pipeline->options().jpeg);
  const sesr::preprocess::WaveletDenoiser wavelet(stack.pipeline->options().wavelet);
  sesr::runtime::Session session(plan);
  Tensor run_out;
  session.run_into(frames[0], run_out);

  const LoopResult plain = run_for(loop, args.seconds / 2.0);
  spans.set_open(true);
  Loop traced_loop = loop;
  traced_loop.submit = [&](const Draw& draw, sesr::serve::ServeCallback done) {
    const Tensor& frame = frames[static_cast<size_t>(draw.index)];
    Tensor out;
    {
      ScopedSpan request(&spans, "edge.request");
      {
        ScopedSpan span(&spans, "core.frame");
        out = traced_pipeline.apply(frame);
      }
      ScopedSpan ladder(&spans, "ladder");
      Tensor compressed;
      Tensor denoised;
      {
        ScopedSpan span(&spans, "preprocess.jpeg");
        compressed = jpeg.apply(frame);
      }
      {
        ScopedSpan span(&spans, "preprocess.wavelet");
        denoised = wavelet.apply(compressed);
      }
      ScopedSpan span(&spans, "runtime.run_into");
      session.run_into(denoised, run_out);
    }
    done(ok_reply(std::move(out)));
  };
  const LoopResult traced = run_for(traced_loop, args.seconds / 2.0);
  spans.set_open(false);
  record_failures(report, plain);
  record_failures(report, traced);

  // Per frame (one trace each): the pipeline's frame and upscale spans and
  // the ladder's jpeg / wavelet / run_into on the same input.
  struct Row {
    double frame = 0, upscale = 0, jpeg = 0, wavelet = 0, run = 0;
  };
  std::map<uint64_t, Row> rows;
  const auto collect = [&](const char* name, double Row::*field) {
    for (const SpanLog::Span& span : spans.named(name))
      rows[span.trace_id].*field = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  };
  collect("core.frame", &Row::frame);
  collect("models.upscale", &Row::upscale);
  collect("preprocess.jpeg", &Row::jpeg);
  collect("preprocess.wavelet", &Row::wavelet);
  collect("runtime.run_into", &Row::run);
  std::vector<double> frame_ms, upscale_ms, jpeg_ms, wavelet_ms, run_ms, core_self, models_self;
  for (const auto& [trace, row] : rows) {
    frame_ms.push_back(row.frame);
    upscale_ms.push_back(row.upscale);
    jpeg_ms.push_back(row.jpeg);
    wavelet_ms.push_back(row.wavelet);
    run_ms.push_back(row.run);
    core_self.push_back(row.frame - row.jpeg - row.wavelet - row.upscale);
    models_self.push_back(row.upscale - row.run);
  }
  const double macs = static_cast<double>(stack.upscaler->macs_for(Shape({3, kFrameLr, kFrameLr})));
  emit_layers(report, args.workload,
              {{"preprocess.jpeg_ms", median(jpeg_ms)},
               {"preprocess.wavelet_ms", median(wavelet_ms)},
               {"core.self_ms", median(core_self)},
               {"models.upscale_ms", median(upscale_ms)},
               {"models.self_ms", median(models_self)},
               {"runtime.run_ms", median(run_ms)},
               {"runtime.arena_bytes", static_cast<double>(plan->peak_arena_bytes())},
               {"tensor.macs_per_req", macs},
               {"tensor.gmac_per_s", macs / (median(run_ms) * 1e-3) / 1e9},
               {"trace.overhead_pct", overhead_pct(frame_ms, plain.latency_ms())}});
  report.line(format("  frame p50 %.4f ms traced (%zu frames) vs %.4f ms untraced (%zu frames)",
                     median(frame_ms), frame_ms.size(), median(plain.latency_ms()),
                     plain.latency_ms().size()));
  finish_trace(report, args, spans);
  return report;
}

// ---- tiles_remote ---------------------------------------------------------

namespace {

constexpr const char* kTileSpec = "default=sesr_m5:int8";
constexpr int64_t kTileLr = 6;
constexpr int kTilePool = 512;
constexpr int kTileInFlight = 64;  // the default SESR_DIST_WINDOW
constexpr int kShardWorkers = 1;
constexpr int64_t kShardMaxBatch = 8;
constexpr int64_t kShardQueue = 2 * kTileInFlight;
constexpr int64_t kTileWarmup = 4000;
/// Tiles per second the sample store holds without growing.
constexpr int64_t kTileRateCap = 40000;
constexpr int kLadderRounds = 400;

/// One frontend connected to one spawned shard. The socket lives under the
/// benchmark's output directory (a relative path, resolved the same way by
/// both processes), which is why this does not use dist::LocalCluster: that
/// harness places its sockets under /tmp.
struct RemoteStack {
  explicit RemoteStack(const std::string& socket_path) : socket(socket_path) {
    shard = std::make_unique<sesr::dist::ShardProcess>(
        sesr::dist::shard_binary_path(),
        std::vector<std::string>{"--socket", socket, "--model", kTileSpec, "--workers",
                                 std::to_string(kShardWorkers), "--max-batch",
                                 std::to_string(kShardMaxBatch), "--queue",
                                 std::to_string(kShardQueue)});
    sesr::dist::Frontend::Options options;
    options.shards = {{"shard0", socket}};
    options.window = kTileInFlight;
    frontend = std::make_unique<sesr::dist::Frontend>(options);
  }
  ~RemoteStack() {
    frontend.reset();
    shard->kill_hard();
    ::unlink(socket.c_str());
  }
  RemoteStack(const RemoteStack&) = delete;
  RemoteStack& operator=(const RemoteStack&) = delete;

  std::string socket;
  std::unique_ptr<sesr::dist::ShardProcess> shard;
  std::unique_ptr<sesr::dist::Frontend> frontend;
};

double shard_mean_batch(const sesr::dist::Frontend& frontend) {
  const sesr::obs::RegistrySnapshot fleet = frontend.fleet_metrics();
  const auto batches = fleet.counters.find("serve.batches");
  const auto images = fleet.counters.find("serve.batched_images");
  if (batches == fleet.counters.end() || images == fleet.counters.end() || batches->second == 0)
    return 0.0;
  return static_cast<double>(images->second) / static_cast<double>(batches->second);
}

}  // namespace

Report run_tiles_remote(const Args& args) {
  Report report;
  report.line(format(
      "tiles_remote: closed loop, %d tiles in flight from one generator thread. dist::Frontend "
      "-> one sesr_shard (%s, %d worker, max_batch %lld), %lldx%lld LR tiles.",
      kTileInFlight, kTileSpec, kShardWorkers, static_cast<long long>(kShardMaxBatch),
      static_cast<long long>(kTileLr), static_cast<long long>(kTileLr)));
  report.line(
      "  why: per-request overhead at its extreme; the remote hop (routing, SDW1 encode/decode, "
      "socket, shard reader) and the in-process server path dominate, kernels are a minority.");

  const sesr::data::SyntheticDiv2k source({.hr_size = 2 * kTileLr, .scale = 2, .seed = args.seed});
  std::vector<Tensor> tiles;
  for (int i = 0; i < kTilePool; ++i)
    tiles.push_back(source.get(i).lr.reshaped(Shape({1, 3, kTileLr, kTileLr})));

  int setup_index = 0;
  std::vector<double> setup_s;
  const auto build = [&] {
    return std::make_unique<RemoteStack>(format("%s/shard-%d-%d.sock", args.out_dir.c_str(),
                                                static_cast<int>(::getpid()), setup_index++));
  };
  std::unique_ptr<RemoteStack> remote =
      timed_setups(args.trace ? 1 : kSetupsBefore, setup_s, build);

  // References: the network dist::build_network makes from the same spec,
  // calibrated the same way — bit-identical to the shard by its determinism
  // contract.
  const sesr::dist::ModelSpec spec = sesr::dist::parse_model_spec(kTileSpec);
  const std::shared_ptr<sesr::serve::ModelRegistry> local = sesr::dist::build_registry({spec});
  const std::shared_ptr<const sesr::serve::ModelSnapshot> snapshot = local->acquire(spec.id);
  std::vector<Tensor> references;
  for (const Tensor& tile : tiles) references.push_back(snapshot->upscaler->upscale(tile));
  const Shape batch8({kShardMaxBatch, 3, kTileLr, kTileLr});
  common_settings(report, args, *snapshot->network->plan_for(batch8));

  sesr::Rng draw_rng(args.seed);
  const sesr::serve::Server::SubmitOptions route;  // model "default"
  Loop loop;
  loop.in_flight = kTileInFlight;
  loop.capacity = args.seconds * kTileRateCap;
  loop.next = [&] { return Draw{0, static_cast<int32_t>(draw_rng.randint(0, kTilePool - 1))}; };
  loop.check = [&](const Draw& draw, const sesr::serve::ServeReply& reply) {
    return reply.ok() && bit_identical(reply.output, references[static_cast<size_t>(draw.index)]);
  };
  loop.submit = [&](const Draw& draw, sesr::serve::ServeCallback done) {
    remote->frontend->submit_async(tiles[static_cast<size_t>(draw.index)], route, std::move(done));
  };
  warm_up(report, loop, kTileWarmup);
  const pid_t shard_pid = remote->shard->pid();

  if (!args.trace) {
    const ProcUsage self0 = self_usage();
    const ProcUsage shard0 = child_usage(shard_pid);
    const LoopResult result = run_for(loop, args.seconds);
    const ProcUsage self1 = self_usage();
    const ProcUsage shard1 = child_usage(shard_pid);
    const double frontend_cpu = self1.cpu_s - self0.cpu_s;
    const double shard_cpu = shard1.cpu_s - shard0.cpu_s;
    const int64_t retries = remote->frontend->stats().resubmitted;
    remote.reset();
    timed_setups(kSetupsAfter, setup_s, build);
    emit_end_to_end(report, setup_s, result, frontend_cpu + shard_cpu,
                    self1.hwm_mb + shard1.hwm_mb);
    const double completed = static_cast<double>(std::max<int64_t>(result.ok, 1));
    report.line(format("diag.cpu_split: frontend %.4f ms/req, shard %.4f ms/req",
                       1e3 * frontend_cpu / completed, 1e3 * shard_cpu / completed));
    report.line(format("diag.peak_rss_split: frontend %.1f MB, shard %.1f MB", self1.hwm_mb,
                       shard1.hwm_mb));
    report.line(format("diag.retries: %lld", static_cast<long long>(retries)));
    return report;
  }

  SpanLog spans;
  const double block_s = args.seconds / 3.0;
  const LoopResult plain = run_for(loop, block_s);
  spans.set_open(true);
  loop.span_names = {"dist.rpc"};
  const ProcUsage self0 = self_usage();
  const ProcUsage shard0 = child_usage(shard_pid);
  const LoopResult traced = run_for(loop, block_s, &spans);
  const ProcUsage self1 = self_usage();
  const ProcUsage shard1 = child_usage(shard_pid);
  const double remote_done = static_cast<double>(std::max<int64_t>(traced.ok, 1));
  const double frontend_cpu_ms = 1e3 * (self1.cpu_s - self0.cpu_s) / remote_done;
  const double shard_cpu_ms = 1e3 * (shard1.cpu_s - shard0.cpu_s) / remote_done;
  const double mean_batch = shard_mean_batch(*remote->frontend);
  const int64_t retries = remote->frontend->stats().resubmitted;
  remote.reset();

  // serve rung: the same loop on an in-process Server with the shard's
  // options, its upscaler wrapped in the timing decorator.
  for (const Shape& shape : batch_shapes(kShardMaxBatch, kTileLr))
    snapshot->network->warmup(shape, kShardWorkers);
  local->publish(spec.id, std::make_shared<TimedUpscaler>(snapshot->upscaler, spans,
                                                          "serve.dispatch"));
  sesr::serve::Server::Options server_options;
  server_options.workers = kShardWorkers;
  server_options.max_batch = kShardMaxBatch;
  server_options.queue_capacity = kShardQueue;
  LoopResult served;
  double serve_cpu_ms = 0.0;
  {
    sesr::serve::Server server(local, server_options);
    loop.submit = [&](const Draw& draw, sesr::serve::ServeCallback done) {
      server.submit_async(tiles[static_cast<size_t>(draw.index)], route, std::move(done));
    };
    loop.span_names = {"serve.request"};
    const ProcUsage before = self_usage();
    served = run_for(loop, block_s, &spans);
    serve_cpu_ms = 1e3 * (self_usage().cpu_s - before.cpu_s) /
                   static_cast<double>(std::max<int64_t>(served.ok, 1));
  }

  // Ladder rungs on the workload's tiles: batch-8 upscale, the session's
  // run_scatter under it, and the SDW1 codecs for the same requests.
  const auto plan8 = snapshot->network->plan_for(batch8);
  sesr::runtime::Session session(plan8);
  std::vector<Tensor> upscaled(kShardMaxBatch), scattered(kShardMaxBatch);
  Tensor batch(batch8);
  const int64_t tile_floats = 3 * kTileLr * kTileLr;
  size_t bytes_per_req = 0;
  bool ladder_ok = true;
  {
    ScopedSpan ladder(&spans, "ladder");
    for (int round = 0; round < kLadderRounds; ++round) {
      std::vector<int32_t> picks;
      for (int64_t i = 0; i < kShardMaxBatch; ++i) {
        picks.push_back(loop.next().index);
        std::copy_n(tiles[static_cast<size_t>(picks.back())].data(), tile_floats,
                    batch.data() + i * tile_floats);
      }
      {
        ScopedSpan span(&spans, "models.upscale_batch");
        snapshot->network->upscale_batch(batch, upscaled);
      }
      {
        ScopedSpan span(&spans, "runtime.run_scatter");
        session.run_scatter(batch, scattered);
      }
      std::vector<std::vector<uint8_t>> submits, replies;
      {
        ScopedSpan span(&spans, "dist.encode");
        for (int64_t i = 0; i < kShardMaxBatch; ++i) {
          sesr::dist::SubmitMessage submit;
          submit.request_id = static_cast<uint64_t>(i + 1);
          submit.model = spec.id;
          submit.tenant = sesr::serve::kDefaultTenant;
          submit.image = tiles[static_cast<size_t>(picks[static_cast<size_t>(i)])];
          submits.push_back(sesr::dist::encode_submit(submit));
          sesr::dist::ReplyMessage reply;
          reply.request_id = submit.request_id;
          reply.status = 0;
          reply.model_version = 2;
          reply.output = upscaled[static_cast<size_t>(i)];
          replies.push_back(sesr::dist::encode_reply(reply));
        }
      }
      std::vector<Tensor> decoded_in, decoded_out;
      {
        ScopedSpan span(&spans, "dist.decode");
        for (int64_t i = 0; i < kShardMaxBatch; ++i) {
          const auto id = static_cast<uint64_t>(i + 1);
          decoded_in.push_back(sesr::dist::decode_submit(id, submits[static_cast<size_t>(i)]).image);
          decoded_out.push_back(sesr::dist::decode_reply(id, replies[static_cast<size_t>(i)]).output);
        }
      }
      for (int64_t i = 0; i < kShardMaxBatch; ++i) {
        const auto at = static_cast<size_t>(i);
        const Tensor& reference = references[static_cast<size_t>(picks[at])];
        scattered[at].clamp_(0.0f, 1.0f);
        ladder_ok = ladder_ok && bit_identical(upscaled[at], reference) &&
                    bit_identical(scattered[at], reference) &&
                    bit_identical(decoded_out[at], reference) &&
                    bit_identical(decoded_in[at], tiles[static_cast<size_t>(picks[at])]);
      }
      bytes_per_req = submits[0].size() + replies[0].size() + 2 * sesr::dist::kHeaderBytes;
    }
  }
  spans.set_open(false);
  if (!ladder_ok) {
    report.correct = false;
    report.line("failure: a ladder rung's output differs from the reference");
  }
  record_failures(report, plain);
  record_failures(report, traced);
  record_failures(report, served);

  const auto per_image = [&](const char* name) {
    std::vector<double> ms = spans.durations_ms(name);
    for (double& value : ms) value /= static_cast<double>(kShardMaxBatch);
    return ms;
  };
  const std::vector<double> upscale_ms = per_image("models.upscale_batch");
  const std::vector<double> run_ms = per_image("runtime.run_scatter");
  std::vector<double> models_self;
  for (size_t i = 0; i < std::min(upscale_ms.size(), run_ms.size()); ++i)
    models_self.push_back(upscale_ms[i] - run_ms[i]);
  const double macs = static_cast<double>(snapshot->upscaler->macs_for(Shape({3, kTileLr, kTileLr})));
  const double rpc_p50 = median(served.latency_ms());
  emit_layers(report, args.workload,
              {{"models.upscale_batch_us", 1e3 * median(upscale_ms)},
               {"models.self_ms", median(models_self)},
               {"runtime.run_us", 1e3 * median(run_ms)},
               {"tensor.macs_per_req", macs},
               {"tensor.gmac_per_s", macs / (median(run_ms) * 1e-3) / 1e9},
               {"serve.rpc_p50_ms", rpc_p50},
               {"serve.cpu_ms_per_req", serve_cpu_ms},
               {"serve.mean_batch", mean_batch},
               {"dist.hop_ms", median(traced.latency_ms()) - rpc_p50},
               {"dist.hop_cpu_ms_per_req", frontend_cpu_ms + shard_cpu_ms - serve_cpu_ms},
               {"dist.frontend_cpu_ms_per_req", frontend_cpu_ms},
               {"dist.shard_cpu_ms_per_req", shard_cpu_ms},
               {"dist.encode_us", 1e3 * median(per_image("dist.encode"))},
               {"dist.decode_us", 1e3 * median(per_image("dist.decode"))},
               {"dist.bytes_per_req", static_cast<double>(bytes_per_req)},
               {"dist.retries", static_cast<double>(retries)},
               {"trace.overhead_pct", overhead_pct(traced.latency_ms(), plain.latency_ms())}});
  report.line(format("  remote p50 %.4f ms traced vs %.4f ms untraced; in-process server p50 "
                     "%.4f ms",
                     median(traced.latency_ms()), median(plain.latency_ms()), rpc_p50));
  finish_trace(report, args, spans);
  return report;
}

// ---- mixed_local ----------------------------------------------------------

namespace {

struct MixClass {
  const char* name;
  const char* model;
  int64_t lr;
  double weight;  ///< share of requests by count
  int pool;
  const char* span;
};

constexpr MixClass kMix[] = {
    {"m5_6x6", "m5", 6, 0.50, 256, "request.m5_6x6"},
    {"m5_32x32", "m5", 32, 0.20, 64, "request.m5_32x32"},
    {"m5_fp32_32x32", "m5_fp32", 32, 0.15, 64, "request.m5_fp32_32x32"},
    {"fsrcnn_6x6", "fsrcnn", 6, 0.15, 256, "request.fsrcnn_6x6"},
};
constexpr int kMixClasses = static_cast<int>(std::size(kMix));
constexpr int kMixInFlight = 16;
constexpr int kMixWorkers = 2;
constexpr int64_t kMixMaxBatch = 8;
constexpr int64_t kMixQueue = 64;
constexpr int64_t kMixWarmup = 2000;
/// Requests per second the sample store holds without growing.
constexpr int64_t kMixRateCap = 20000;
constexpr const char* kCanary = "m5_fp32";
constexpr std::chrono::milliseconds kPublishPeriod{1000};

struct Dispatch {
  const char* model;
  const char* span;
};
constexpr Dispatch kDispatchSpans[] = {{"m5", "serve.dispatch.m5"},
                                       {"m5_fp32", "serve.dispatch.m5_fp32"},
                                       {"fsrcnn", "serve.dispatch.fsrcnn"}};

struct MixStack {
  std::shared_ptr<sesr::serve::ModelRegistry> registry;
  std::unique_ptr<sesr::serve::Server> server;
};

MixStack build_mix(const std::vector<Tensor>& calibration) {
  auto m5 = std::make_shared<sesr::models::Sesr>(sesr::models::SesrConfig::m5(),
                                                 sesr::models::Sesr::Form::kInference);
  auto fsrcnn = std::make_shared<sesr::models::Fsrcnn>(sesr::models::FsrcnnConfig::paper());
  sesr::Rng rng(kWeightSeed);
  m5->init_weights(rng);
  fsrcnn->init_weights(rng);

  MixStack stack;
  stack.registry = std::make_shared<sesr::serve::ModelRegistry>();
  stack.registry->register_model("m5", "SESR-M5", m5);
  stack.registry->register_model(kCanary, "SESR-M5 fp32", m5);
  stack.registry->register_model("fsrcnn", "FSRCNN", fsrcnn);
  const Shape calib_shape = calibration.front().shape();
  for (const auto& [id, network] :
       {std::pair<const char*, sesr::nn::Module*>{"m5", m5.get()}, {"fsrcnn", fsrcnn.get()}})
    stack.registry->publish_int8(
        id, std::make_shared<const sesr::quant::QuantizedModel>(
                sesr::quant::QuantizedModel::calibrate(*network, calib_shape, calibration)));

  sesr::serve::Server::Options options;
  options.workers = kMixWorkers;
  options.max_batch = kMixMaxBatch;
  options.queue_capacity = kMixQueue;
  stack.server = std::make_unique<sesr::serve::Server>(stack.registry, options);
  for (const MixClass& klass : kMix)
    stack.server->warmup(klass.model, Shape({3, klass.lr, klass.lr}));
  return stack;
}

/// The control plane: republishes the fp32 canary on a fixed one-second
/// schedule, warmed for batch sizes 1..max_batch, while the data plane
/// serves. With `spans`, each publish is a span and the new version is
/// re-published behind the timing decorator.
class ControlPlane {
 public:
  ControlPlane(sesr::serve::ModelRegistry& registry, SpanLog* spans)
      : registry_(registry), spans_(spans), thread_([this] { loop(); }) {}
  ~ControlPlane() { stop(); }
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] int publishes() const { return publishes_; }
  /// The undecorated upscaler of the newest canary version (null before the
  /// first publish). Read after stop().
  [[nodiscard]] std::shared_ptr<sesr::models::Upscaler> latest() const { return latest_; }

 private:
  void loop() {
    const std::vector<Shape> warm = batch_shapes(kMixMaxBatch, 32);
    Clock::time_point tick = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_until(lock, tick += kPublishPeriod, [&] { return stopping_; })) {
      lock.unlock();
      {
        ScopedSpan span(spans_, "serve.publish");
        registry_.publish_fp32(kCanary, warm, kMixWorkers);
      }
      latest_ = registry_.acquire(kCanary)->upscaler;
      if (spans_ != nullptr)
        registry_.publish(kCanary, std::make_shared<TimedUpscaler>(latest_, *spans_,
                                                                   "serve.dispatch.m5_fp32"));
      ++publishes_;
      lock.lock();
    }
  }

  sesr::serve::ModelRegistry& registry_;
  SpanLog* spans_;
  std::mutex mutex_;  // guards stopping_
  std::condition_variable cv_;
  bool stopping_ = false;
  int publishes_ = 0;  // control thread only until stop() joins
  std::shared_ptr<sesr::models::Upscaler> latest_;
  std::thread thread_;  // declared last: starts after the members it uses
};

}  // namespace

Report run_mixed_local(const Args& args) {
  Report report;
  report.line(format(
      "mixed_local: closed loop, %d requests in flight from one generator thread. In-process "
      "serve::Server (%d workers, max_batch %lld) over a ModelRegistry: m5 (SESR-M5 int8), "
      "m5_fp32 (fp32 canary, republished every %lld ms warmed for batch 1-%lld), fsrcnn "
      "(FSRCNN int8).",
      kMixInFlight, kMixWorkers, static_cast<long long>(kMixMaxBatch),
      static_cast<long long>(kPublishPeriod.count()), static_cast<long long>(kMixMaxBatch)));
  std::string mix = "  mix by count:";
  for (const MixClass& klass : kMix) mix += format(" %s %.0f%%", klass.name, 100.0 * klass.weight);
  report.line(mix);
  report.line(
      "  why: the same layers used in different ways — no batching across models or shapes, "
      "several plans per cache, both precisions, FSRCNN's float deconv fallback, RCU publishes "
      "beside dispatch reads; dist and preprocess are idle.");

  std::vector<std::vector<Tensor>> inputs(kMixClasses);
  for (int c = 0; c < kMixClasses; ++c) {
    const MixClass& klass = kMix[c];
    const sesr::data::SyntheticDiv2k source({.hr_size = 2 * klass.lr, .scale = 2, .seed = args.seed});
    for (int i = 0; i < klass.pool; ++i)
      inputs[static_cast<size_t>(c)].push_back(
          source.get(1000 * c + i).lr.reshaped(Shape({1, 3, klass.lr, klass.lr})));
  }
  const sesr::data::SyntheticDiv2k calib_source({.hr_size = 64, .scale = 2, .seed = args.seed});
  const std::vector<Tensor> calibration = {calib_source.batch(10000, 2).lr,
                                           calib_source.batch(10002, 2).lr};

  std::vector<double> setup_s;
  const auto build = [&] { return build_mix(calibration); };
  MixStack stack = timed_setups(args.trace ? 1 : kSetupsBefore, setup_s, build);
  sesr::serve::ModelRegistry& registry = *stack.registry;
  common_settings(report, args, *registry.acquire("m5")->network->plan_for(Shape({1, 3, 6, 6})));

  std::vector<std::vector<Tensor>> references(kMixClasses);
  std::vector<sesr::serve::Server::SubmitOptions> routes(kMixClasses);
  for (int c = 0; c < kMixClasses; ++c) {
    const auto upscaler = registry.acquire(kMix[c].model)->upscaler;
    for (const Tensor& input : inputs[static_cast<size_t>(c)])
      references[static_cast<size_t>(c)].push_back(upscaler->upscale(input));
    routes[static_cast<size_t>(c)].model = kMix[c].model;
  }

  sesr::Rng draw_rng(args.seed);
  Loop loop;
  loop.in_flight = kMixInFlight;
  loop.capacity = args.seconds * kMixRateCap;
  loop.next = [&] {
    const float u = draw_rng.uniform();
    double edge = 0.0;
    int c = kMixClasses - 1;
    for (int k = 0; k < kMixClasses; ++k) {
      edge += kMix[k].weight;
      if (u < edge) {
        c = k;
        break;
      }
    }
    return Draw{c, static_cast<int32_t>(draw_rng.randint(0, kMix[c].pool - 1))};
  };
  loop.check = [&](const Draw& draw, const sesr::serve::ServeReply& reply) {
    return reply.ok() &&
           bit_identical(reply.output, references[static_cast<size_t>(draw.klass)]
                                                 [static_cast<size_t>(draw.index)]);
  };
  loop.submit = [&](const Draw& draw, sesr::serve::ServeCallback done) {
    stack.server->submit_async(
        inputs[static_cast<size_t>(draw.klass)][static_cast<size_t>(draw.index)],
        routes[static_cast<size_t>(draw.klass)], std::move(done));
  };
  for (const MixClass& klass : kMix) loop.span_names.push_back(klass.span);
  warm_up(report, loop, kMixWarmup);

  if (!args.trace) {
    const ProcUsage before = self_usage();
    LoopResult result;
    int publishes = 0;
    {
      ControlPlane control(registry, nullptr);
      result = run_for(loop, args.seconds);
      control.stop();
      publishes = control.publishes();
    }
    const ProcUsage after = self_usage();
    stack = {};
    timed_setups(kSetupsAfter, setup_s, build);
    emit_end_to_end(report, setup_s, result, after.cpu_s - before.cpu_s, after.hwm_mb);
    std::string classes = "diag.class_p50_ms:";
    for (int c = 0; c < kMixClasses; ++c)
      classes += format(" %s %.4f", kMix[c].name, median(result.class_ms(c)));
    report.line(classes);
    report.line(format("diag.publishes: %d canary versions during the window", publishes));
    return report;
  }

  SpanLog spans;
  LoopResult plain;
  {
    ControlPlane control(registry, nullptr);
    plain = run_for(loop, args.seconds / 2.0);
  }
  // Keep the undecorated upscalers: plan-cache counters and the FSRCNN
  // program are read from them after the window.
  std::map<std::string, std::shared_ptr<sesr::models::Upscaler>> inner;
  for (const Dispatch& dispatch : kDispatchSpans) {
    inner[dispatch.model] = registry.acquire(dispatch.model)->upscaler;
    registry.publish(dispatch.model,
                     std::make_shared<TimedUpscaler>(inner[dispatch.model], spans, dispatch.span));
  }
  spans.set_open(true);
  const sesr::serve::ServerStats stats0 = stack.server->stats();
  LoopResult traced;
  {
    ControlPlane control(registry, &spans);
    traced = run_for(loop, args.seconds / 2.0, &spans);
    control.stop();
    if (control.latest()) inner[kCanary] = control.latest();
  }
  spans.set_open(false);
  const sesr::serve::ServerStats stats1 = stack.server->stats();
  record_failures(report, plain);
  record_failures(report, traced);

  std::map<std::string, double> values;
  std::vector<double> all_dispatch;
  for (const Dispatch& dispatch : kDispatchSpans) {
    const std::vector<double> ms = spans.durations_ms(dispatch.span);
    values[std::string("serve.dispatch_ms.") + dispatch.model] = median(ms);
    all_dispatch.insert(all_dispatch.end(), ms.begin(), ms.end());
  }
  const std::vector<double> traced_ms = traced.latency_ms();
  values["serve.wait_ms"] = median(traced_ms) - median(all_dispatch);
  double macs = 0.0;
  for (int c = 0; c < kMixClasses; ++c) {
    const std::vector<double> class_ms = traced.class_ms(c);
    values[std::string("serve.class_p50_ms.") + kMix[c].name] = median(class_ms);
    macs += static_cast<double>(class_ms.size()) *
            static_cast<double>(inner[kMix[c].model]->macs_for(Shape({3, kMix[c].lr, kMix[c].lr})));
  }
  values["tensor.macs_per_req"] = macs / static_cast<double>(std::max<size_t>(traced_ms.size(), 1));
  values["serve.publish_ms"] = median(spans.durations_ms("serve.publish"));
  values["serve.mean_batch"] =
      static_cast<double>(stats1.batched_images - stats0.batched_images) /
      static_cast<double>(std::max<int64_t>(stats1.batches - stats0.batches, 1));
  int64_t hits = 0;
  int64_t compiles = 0;
  for (const auto& [model, upscaler] : inner) {
    const auto* network = dynamic_cast<const sesr::models::NetworkUpscaler*>(upscaler.get());
    if (network == nullptr) throw std::logic_error(model + " is not network-backed");
    hits += network->plan_cache_hit_count();
    compiles += network->plan_compile_count();
  }
  values["models.plan_hit_frac"] =
      static_cast<double>(hits) / static_cast<double>(std::max<int64_t>(hits + compiles, 1));
  auto* fsrcnn = dynamic_cast<sesr::models::NetworkUpscaler*>(inner["fsrcnn"].get());
  if (fsrcnn == nullptr) throw std::logic_error("fsrcnn is not network-backed");
  values["runtime.fallback_ops"] =
      static_cast<double>(float_ops(*fsrcnn->plan_for(Shape({1, 3, 6, 6}))));
  values["trace.overhead_pct"] = overhead_pct(traced_ms, plain.latency_ms());
  emit_layers(report, args.workload, values);
  report.line(format("  p50 %.4f ms traced vs %.4f ms untraced", median(traced_ms),
                     median(plain.latency_ms())));
  report.line(format("  plan cache: %lld hits, %lld compiles over the served upscalers (a "
                     "pooled session skips the lookup)",
                     static_cast<long long>(hits), static_cast<long long>(compiles)));
  finish_trace(report, args, spans);
  return report;
}

}  // namespace perfbench

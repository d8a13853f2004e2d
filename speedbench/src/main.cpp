// speedbench -- command line.
//
//   speedbench gen --workload W --seed N --model FILE
//       writes the workload's llama2.c checkpoint for seed N
//   speedbench run --workload W --seed N --seconds S --trace 0|1
//                  --model FILE --out DIR
//       runs one workload and prints the result JSON as the last line
//   speedbench selftest
//       plants one fault per correctness check and shows each is caught
//   speedbench describe --workload W --seed N
//       entropy and top-p nucleus of the generated model's distributions
//
// speedbench/run.py builds the binary and runs gen, then run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

using namespace speedbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run prints all of these (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"host_tokens_per_s", "tokens/s"},
    {"sim_ttft_p50_ms", "ms"},
    {"sim_ttft_p99_ms", "ms"},
    {"sim_tpot_p50_ms", "ms"},
    {"sim_tpot_p99_ms", "ms"},
    {"sim_tokens_per_s", "tokens/s"},
    {"sim_tokens_per_joule", "tokens/J"},
    {"sim_speedup_vs_unoptimized", "x"},
};

// Every traced run prints all of these (BENCHMARK.json "per_layer"). A
// layer the workload does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"host.cpu_s", "s"},
    {"host.sys_s", "s"},
    {"host.minor_faults", "count"},
    {"llama.checkpoint_read_s", "s"},
    {"llama.matmul_gmacs_per_s", "GMAC/s"},
    {"llama.sample_us", "us"},
    {"llama.nucleus_tokens", "tokens"},
    {"llama.entropy_nats", "nats"},
    {"compiler.compile_s", "s"},
    {"compiler.instructions", "count"},
    {"accel.launches_per_token", "count"},
    {"accel.forward_us.prefill", "us"},
    {"accel.forward_us.decode", "us"},
    {"accel.cycles_per_token", "cycles"},
    {"accel.roofline_ratio", "ratio"},
    {"accel.busy_cycles.dma_in", "cycles"},
    {"accel.busy_cycles.dma_out", "cycles"},
    {"accel.busy_cycles.mpe", "cycles"},
    {"accel.busy_cycles.sfu", "cycles"},
    {"accel.busy_cycles.ctrl", "cycles"},
    {"accel.hbm_bytes_per_token", "bytes"},
    {"accel.energy_uj.hbm", "uJ"},
    {"accel.energy_uj.bram", "uJ"},
    {"accel.energy_uj.mac", "uJ"},
    {"accel.energy_uj.sfu", "uJ"},
    {"accel.energy_uj.launch", "uJ"},
    {"accel.energy_uj.unit_active", "uJ"},
    {"accel.energy_uj.unit_idle", "uJ"},
    {"accel.energy_uj.static", "uJ"},
    {"runtime.device_create_s", "s"},
    {"api.engine_create_s", "s"},
    {"api.submit_us", "us"},
    {"api.step_s", "s"},
    {"api.finish_s", "s"},
    {"serving.kv_pool_create_s", "s"},
    {"serving.kv_blocks_per_card", "count"},
    {"serving.ticks", "count"},
    {"serving.batch_width_mean", "seqs"},
    {"serving.queue_ms_p50", "ms"},
    {"serving.queue_ms_p99", "ms"},
    {"serving.card_utilization_mean", "ratio"},
    {"serving.imbalance", "ratio"},
    {"serving.preemptions", "count"},
    {"serving.recomputed_tokens", "tokens"},
    {"serving.prefill_ms_p50", "ms"},
    {"serving.prefix_hit_rate", "ratio"},
    {"serving.prefix_hit_token_share", "ratio"},
    {"serving.cow_copies", "count"},
    {"serving.cache_evictions", "count"},
    {"serving.dma_bytes", "bytes"},
    {"serving.dma_ms", "ms"},
    {"serving.kv_transfer_bytes", "bytes"},
    {"serving.remote_prefix_hits", "count"},
    {"obs.overhead_ratio", "ratio"},
    {"obs.write_trace_s", "s"},
    {"obs.write_metrics_s", "s"},
};

bool IsWorkload(const std::string& w) {
  return w == "paper_decode" || w == "chat_poisson" ||
         w == "rag_shared_prefix";
}

Shape ShapeFor(const std::string& w) {
  return w == "paper_decode" ? PaperShape() : ServeShape();
}

// --key value pairs after the subcommand.
bool ParseArgs(int argc, char** argv, RunOptions& o) {
  for (int i = 2; i < argc; i += 2) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else if (k == "--model") {
      o.model_path = v;
    } else if (k == "--out") {
      o.out_dir = v;
    } else {
      return false;
    }
  }
  return IsWorkload(o.workload);
}

void PrintJson(const RunResult& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  const auto& have = trace ? r.per_layer : r.end_to_end;
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = have.find(spec.name);
    const double v = it == have.end() ? 0.0 : it->second.value;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += std::string(first ? "" : ", ") + "\"" + spec.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricSpec& s : kPerLayer) emit(s);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const RunOptions& opt) {
  Tracer tracer(opt.trace);
  RunResult r;
  const bool ok = opt.workload == "paper_decode"
                      ? RunPaperDecode(opt, tracer, r)
                      : RunServing(opt, tracer, r);
  if (!ok) return 1;
  // A metric the run did not produce, or produced as NaN/inf, is a fault.
  for (const MetricSpec& s : kEndToEnd) {
    const auto it = r.end_to_end.find(s.name);
    if (it == r.end_to_end.end() || !std::isfinite(it->second.value) ||
        it->second.value <= 0.0) {
      r.Check({"metric_present", false, std::string(s.name) + " missing"});
    }
  }
  for (const auto& [name, m] : r.per_layer) {
    if (!std::isfinite(m.value)) {
      r.Check({"metric_finite", false, name + " is not finite"});
    }
  }
  std::size_t passed = 0;
  for (const CheckResult& c : r.checks) passed += c.ok ? 1 : 0;
  std::fprintf(stderr, "%s seed %llu: %zu/%zu checks passed, %lld attempted, "
                       "%lld failed\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               passed, r.checks.size(), static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed));
  if (opt.trace) {
    // Compared with an untraced run's, this gives the tracing overhead.
    std::fprintf(stderr, "host_tokens_per_s under tracing: %.1f\n",
                 r.end_to_end["host_tokens_per_s"].value);
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer.Write(path)) {
      r.Check({"span_file_written", false, path});
    } else {
      std::fprintf(stderr, "spans: %s\n", path.c_str());
    }
  }
  PrintJson(r, opt.trace);
  return 0;
}

int Describe(const RunOptions& opt) {
  const Checkpoint ck = GenerateCheckpoint(ShapeFor(opt.workload), opt.seed);
  Reference64 ref(ck);
  Rng rng(opt.seed);
  double h = 0.0, nucleus = 0.0, top1 = 0.0;
  const int n = 64;
  for (int pos = 0; pos < n; ++pos) {
    const auto tok = static_cast<std::int32_t>(
        pos == 0 ? 1 : rng.Range(3, ck.shape.vocab_size - 1));
    const std::vector<double>& l = ref.Forward(tok, pos);
    std::vector<float> f(l.begin(), l.end());
    h += EntropyNats(f);
    nucleus += NucleusSize(f, kChatTemperature, kChatTopP);
    top1 += NucleusSize(f, 1.0, 0.5);
  }
  std::printf("%s seed %llu vocab %d final gain %g: entropy %.3f nats (max "
              "%.3f), nucleus(T=0.8, p=0.9) %.1f tokens, tokens to p=0.5 %.1f\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              ck.shape.vocab_size, FinalGain(ck.shape), h / n,
              std::log(static_cast<double>(ck.shape.vocab_size)), nucleus / n,
              top1 / n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "selftest") return RunSelfTest();
  RunOptions opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: speedbench gen|run|describe --workload "
                 "paper_decode|chat_poisson|rag_shared_prefix --seed N "
                 "[--seconds S --trace 0|1 --model FILE --out DIR]\n");
    return 2;
  }
  if (cmd == "gen") {
    const Checkpoint ck = GenerateCheckpoint(ShapeFor(opt.workload), opt.seed);
    return WriteCheckpointFile(ck, opt.model_path) ? 0 : 1;
  }
  if (cmd == "run") return Run(opt);
  if (cmd == "describe") return Describe(opt);
  return 2;
}

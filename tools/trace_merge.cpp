// trace_merge — offline multi-node trace merge.
//
// marp_cluster --trace-out already merges in-process, but it also drops one
// raw serialized NodeTrace per member (nodeN.trace) next to the logs so the
// merge can be re-run later: different reference node, different calibration
// resolution, or a dump pulled by hand from a long-lived cluster via the
// TraceDump RPC. This tool is that re-run:
//
//   trace_merge --out merged.json node0.trace node1.trace node2.trace
//   trace_merge --out merged.json --calibration-out cal.json run/*.trace
//
// The output is the same single Perfetto-loadable timeline marp_cluster
// writes: one pid per node, clock-aligned timestamps, stitched migration
// spans with flow arrows (validated by trace_check --merged).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "rpc/control.hpp"
#include "serial/byte_buffer.hpp"
#include "trace/merge.hpp"
#include "util/flags.hpp"

namespace {

bool read_trace_file(const std::string& path, marp::rpc::NodeTrace& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_merge: cannot open %s\n", path.c_str());
    return false;
  }
  marp::serial::Bytes bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  try {
    marp::serial::Reader r(bytes);
    out = marp::rpc::NodeTrace::deserialize(r);
    if (!r.at_end()) throw marp::serial::MalformedError("trailing bytes");
  } catch (const marp::serial::DecodeError& e) {
    std::fprintf(stderr, "trace_merge: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string calibration_path;
  marp::trace::MergeOptions options;
  std::vector<std::string> inputs;

  marp::util::Flags flags("trace_merge");
  flags.add("--out", "FILE", out_path, "merged Chrome-trace JSON")
      .add("--calibration-out", "FILE", calibration_path,
           "per-link latencies for marp_sim --net-calibration")
      .add("--reference", "N", options.reference, "node whose clock the timeline adopts")
      .add("--quantiles", "K", options.calibration_quantiles, "calibration table resolution")
      .positional("TRACE...", inputs, "raw NodeTrace dumps (marp_cluster's nodeN.trace)");
  flags.parse(argc, argv);
  if (inputs.empty()) flags.fail("expected at least one TRACE file");
  if (out_path.empty() && calibration_path.empty()) {
    flags.fail("expected --out or --calibration-out");
  }

  std::vector<marp::rpc::NodeTrace> traces;
  traces.reserve(inputs.size());
  for (const std::string& path : inputs) {
    marp::rpc::NodeTrace trace;
    if (!read_trace_file(path, trace)) return 1;
    traces.push_back(std::move(trace));
  }

  marp::trace::MergeResult result;
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "trace_merge: cannot write %s\n", out_path.c_str());
      return 1;
    }
    result = marp::trace::write_merged_trace(out, traces, options);
    if (!out) {
      std::fprintf(stderr, "trace_merge: write failed: %s\n", out_path.c_str());
      return 1;
    }
  } else {
    result = marp::trace::align_clocks(traces, options);
  }

  for (const auto& trace : traces) {
    const bool ok = trace.node < result.aligned.size() && result.aligned[trace.node];
    std::fprintf(stderr, "trace_merge: node %u clock offset %lld us%s\n",
                 trace.node,
                 static_cast<long long>(
                     trace.node < result.offsets_us.size() ? result.offsets_us[trace.node] : 0),
                 ok ? "" : " (UNALIGNED: no traced-frame path to reference)");
  }
  if (!out_path.empty()) {
    std::fprintf(stderr,
                 "trace_merge: %zu spans, %zu flow events, %zu unmatched open, "
                 "%llu dropped -> %s\n",
                 result.spans_emitted, result.flows_emitted, result.open_unmatched,
                 static_cast<unsigned long long>(result.spans_dropped +
                                                 result.samples_dropped),
                 out_path.c_str());
  }

  if (!calibration_path.empty()) {
    std::ofstream out(calibration_path);
    if (!out) {
      std::fprintf(stderr, "trace_merge: cannot write %s\n", calibration_path.c_str());
      return 1;
    }
    marp::trace::write_calibration_json(out, result.calibration);
    std::fprintf(stderr, "trace_merge: calibration: %zu links -> %s\n",
                 result.calibration.links.size(), calibration_path.c_str());
  }
  return 0;
}

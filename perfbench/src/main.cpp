// perfbench: the whole-model benchmark driver. run.py is the user-facing
// entry point; this binary does the measuring.
//
//   perfbench train --dir DIR
//       Train the ML nets (examples/climate_ml.cpp recipe), cache them in
//       DIR under their fingerprints, print the paths and fingerprints.
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --tmp-dir D
//                 [--q1q2 PATH --q1q2-fp HEX --rad PATH --rad-fp HEX]
//                 [--untrained-nets 1]
//       One measured run; prints one JSON record line. --untrained-nets
//       replaces the weight files with default-constructed nets (the
//       finiteness self-test in run.py).
//   perfbench setup (same arguments as run)
//       One cold set-up only; prints setup_s and its phases.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench_core.hpp"
#include "training.hpp"
#include "workloads.hpp"

namespace {

using perfbench::hex;
using perfbench::Metric;

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// JSON has no NaN or infinity: a non-finite number prints as null.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += jsonString(ms[i].name) + ": {\"value\": " + jsonNumber(ms[i].value) +
           ", \"unit\": " + jsonString(ms[i].unit) + "}";
  }
  return out + "}";
}

std::uint64_t parseHex(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

/// --key value pairs after the subcommand.
std::map<std::string, std::string> parseArgs(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument '" + k + "'");
    }
    a[k.substr(2)] = argv[++i];
  }
  return a;
}

std::string need(const std::map<std::string, std::string>& a, const char* key) {
  const auto it = a.find(key);
  if (it == a.end()) throw std::invalid_argument(std::string("missing --") + key);
  return it->second;
}

int cmdTrain(const std::map<std::string, std::string>& a) {
  const perfbench::WeightFiles f = perfbench::trainAndCache(need(a, "dir"));
  std::printf("{\"q1q2\": %s, \"q1q2_fp\": \"%s\", \"rad\": %s, \"rad_fp\": \"%s\"}\n",
              jsonString(f.q1q2_path).c_str(), hex(f.q1q2_fingerprint).c_str(),
              jsonString(f.rad_path).c_str(), hex(f.rad_fingerprint).c_str());
  return 0;
}

int cmdRun(const std::map<std::string, std::string>& a, bool setup_only) {
  perfbench::RunOptions o;
  o.workload = need(a, "workload");
  o.seed = std::strtoull(need(a, "seed").c_str(), nullptr, 10);
  o.seconds = std::atof(need(a, "seconds").c_str());
  o.trace = need(a, "trace") == "1";
  o.tmp_dir = need(a, "tmp-dir");
  if (a.count("q1q2")) {
    o.q1q2_path = need(a, "q1q2");
    o.q1q2_fingerprint = parseHex(need(a, "q1q2-fp"));
    o.rad_path = need(a, "rad");
    o.rad_fingerprint = parseHex(need(a, "rad-fp"));
  }
  o.untrained_nets = a.count("untrained-nets") && a.at("untrained-nets") == "1";
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  if (setup_only) {
    std::printf("{\"workload\": %s, \"metrics\": %s}\n", jsonString(o.workload).c_str(),
                jsonMetrics(perfbench::measureSetup(o)).c_str());
    return 0;
  }

  const perfbench::RunResult r = perfbench::runWorkload(o);
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i ? ", " : "") + jsonString(r.failures[i]);
  }
  failures += "]";
  std::string context = "{";
  for (std::size_t i = 0; i < r.context.size(); ++i) {
    context += (i ? ", " : "") + jsonString(r.context[i].first) + ": " +
               jsonString(r.context[i].second);
  }
  context += "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %ld, \"failed\": %ld, \"failures\": %s, \"metrics\": %s, "
      "\"extra\": %s, \"context\": %s}\n",
      jsonString(o.workload).c_str(), o.seed, o.trace ? 1 : 0,
      r.failed == 0 ? "true" : "false", r.attempted, r.failed, failures.c_str(),
      jsonMetrics(r.metrics).c_str(), jsonMetrics(r.extra).c_str(), context.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench train|run|setup [--key value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const auto args = parseArgs(argc, argv);
    if (cmd == "train") return cmdTrain(args);
    if (cmd == "run") return cmdRun(args, false);
    if (cmd == "setup") return cmdRun(args, true);
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
  }
  return 2;
}

// Full flow: every stage of the paper's layout pipeline in one program.
//
//   1. module generation — a differential pair and a current mirror from
//      the C++ library, plus a bias resistor,
//   2. placement — the mirror above the pair with a routing channel,
//   3. routing — left-edge channel routing of the inter-block nets,
//   4. verification — DRC, latch-up (with automatic substrate contacts)
//      and LVS against the intended netlist,
//   5. export — SVG, CIF and GDSII.
//
//   $ ./full_flow [--jobs N]
//   $ ./full_flow --trace trace.json --stats=stats.json
//   $ ./full_flow --record flow.amgt
//
// --jobs N runs the §2.4 compaction-order report (stage 1b) on N threads
// (0 = all hardware threads; default 1).  The observability flags
// (--trace/--stats/--log-level) are shared with dsl_runner; see obs/obs.h.
// --record captures the run as a one-request AMGT trace (obs/recorder.h):
// the pipeline is C++ code, not a replayable DSL request, so the record is
// External-kind — amg_replay skips it, but `amg_replay --against` diffs two
// recorded runs digest-by-digest (CI runs the flow twice and asserts the
// top-level layout is byte-stable).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "gen/fingerprint.h"
#include "io/layout.h"
#include "obs/flight.h"
#include "obs/recorder.h"
#include "util/hash.h"

#include "db/connectivity.h"
#include "obs/obs.h"
#include "drc/drc.h"
#include "drc/extract.h"
#include "io/cif.h"
#include "io/gds.h"
#include "io/svg.h"
#include "modules/basic.h"
#include "modules/interdigitated.h"
#include "modules/resistor.h"
#include "opt/parallel.h"
#include "route/router.h"
#include "tech/builtin.h"
#include "util/thread_pool.h"

using namespace amg;

namespace {

/// Attach point: via from a block's metal1 rail up to metal2 and a riser to
/// the channel edge; only rails entirely below the channel qualify (the
/// same net may also have geometry in the block above).  Returns the pin x.
Coord pinUp(db::Module& m, const std::string& net, Coord wantX, Coord channelEdgeY) {
  const tech::Technology& t = m.technology();
  const auto n = m.findNet(net);
  Box rail;
  for (db::ShapeId id : m.shapesOn(t.layer("metal1"))) {
    const db::Shape& s = m.shape(id);
    if (s.net == *n && s.box.y2 <= channelEdgeY && s.box.area() > rail.area())
      rail = s.box;
  }
  const Coord x = std::clamp(wantX, rail.x1 + um(1.4), rail.x2 - um(1.4));
  route::viaStack(m, Point{x, rail.center().y}, t.layer("metal1"), t.layer("metal2"),
                  *n);
  route::wireStraight(m, t.layer("metal2"), Point{x, rail.center().y},
                      Point{x, channelEdgeY}, um(2), *n);
  return x;
}

/// Parse `--jobs N` / `--jobs=N`; returns 1 when absent (serial report).
std::size_t parseJobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      return static_cast<std::size_t>(std::atol(argv[i] + 7));
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      return static_cast<std::size_t>(std::atol(argv[i + 1]));
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [options]\n"
          "  --jobs N        run the compaction-order report on N threads"
          " (0 = all hardware threads; default 1)\n"
          "  --record FILE   append this run to FILE as an External-kind\n"
          "                  request trace (compare runs: amg_replay --against)\n"
          "  --help          show this help and exit\n%s",
          argv[0], obs::cliUsage());
      return 0;
    }
  }
  obs::flight::installCrashHandlers();
  const tech::Technology& t = tech::bicmos1u();
  const std::size_t jobs = parseJobs(argc, argv);
  obs::CliOptions obsOpts;
  std::string recordPath;
  for (int i = 1; i < argc; ++i) {
    if (obs::parseCliFlag(argc, argv, i, obsOpts)) continue;
    if (std::strncmp(argv[i], "--record=", 9) == 0)
      recordPath = argv[i] + 9;
    else if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc)
      recordPath = argv[++i];
  }
  obs::Span flowSpan("flow.total");
  std::printf("Full flow in %s\n", t.name().c_str());

  // --- 1. generation -------------------------------------------------------
  modules::DiffPairSpec dp;
  dp.w = um(15);
  dp.l = um(2);
  db::Module pair = modules::diffPair(t, dp);

  modules::MirrorSpec mir;
  mir.w = um(15);
  mir.l = um(2);
  mir.inNet = "outa";   // the mirror input takes the pair's left output
  mir.outNet = "out";
  mir.sourceNet = "vdd";
  db::Module mirror = modules::currentMirror(t, mir);

  modules::ResistorSpec rs;
  rs.squares = 60;
  rs.legs = 3;
  rs.netA = "bias";
  rs.netB = "tail";  // degenerates the tail
  db::Module res = modules::polyResistor(t, rs);

  std::printf("  generated: pair %.0fx%.0f, mirror %.0fx%.0f, resistor %.0fx%.0f um\n",
              (double)pair.bbox().width() / kMicron, (double)pair.bbox().height() / kMicron,
              (double)mirror.bbox().width() / kMicron,
              (double)mirror.bbox().height() / kMicron,
              (double)res.bbox().width() / kMicron, (double)res.bbox().height() / kMicron);

  // --- 1b. §2.4 order report: how would these blocks best pack into one
  // row?  Informational only — the placement below keeps the paper's
  // stacked arrangement — but it exercises the parallel order search on the
  // real generated blocks ("--jobs N" distributes the permutation space).
  {
    modules::ContactRowSpec bias;
    bias.l = um(10);
    bias.net = "bias";
    opt::BuildPlan row(pair);
    row.name = "row";
    row.steps.emplace_back(res, Dir::West);
    row.steps.emplace_back(mirror, Dir::West);
    row.steps.emplace_back(modules::contactRow(t, bias), Dir::West);
    opt::ParallelOptimizeOptions popt;
    popt.threads = jobs;
    const opt::OptimizeResult best = opt::optimizeOrderParallel(row, {}, popt);
    std::string order;
    for (const std::size_t i : best.order) order += std::to_string(i) + " ";
    std::printf("  order search (%zu jobs): best row packing %.0f um^2, order [ %s] "
                "(%zu orders rated, %zu pruned)\n",
                jobs == 0 ? util::defaultThreadCount() : jobs,
                best.score / (kMicron * kMicron), order.c_str(), best.evaluated,
                best.pruned);
  }

  // --- 2. placement: pair and resistor below, mirror above the channel -----
  db::Module top(t, "full_flow");
  const Coord channel = um(24);
  {
    const Box pb = pair.bboxAll();
    pair.translate(-pb.x1, -pb.y1);
    top.merge(pair, geom::Transform{});
    const Box rb = res.bboxAll();
    res.translate(pb.width() + um(8) - rb.x1, -rb.y1);
    top.merge(res, geom::Transform{});
    const Coord rowTop = top.bboxAll().y2;
    const Box mb = mirror.bboxAll();
    mirror.translate(-mb.x1, rowTop + channel - mb.y1);
    top.merge(mirror, geom::Transform{});
  }
  const Coord yChanBot = pair.bboxAll().y2 + um(2);
  const Coord yChanTop = mirror.bboxAll().y1 - um(2);

  // --- 3. routing: outa and outb up into the mirror ------------------------
  // Pins: pair outputs from below, mirror input/out rails from above.
  const Coord xA_b = pinUp(top, "outa", 0, yChanBot);
  const Coord xB_b = pinUp(top, "outb", top.bboxAll().x2, yChanBot);
  // The mirror's rails face the channel from above; drop risers down.
  const auto dropPin = [&](const std::string& net, Coord wantX) {
    const auto n = top.findNet(net);
    Box rail;
    for (db::ShapeId id : top.shapesOn(t.layer("metal1"))) {
      const db::Shape& s = top.shape(id);
      if (s.net == *n && s.box.y1 > yChanTop && s.box.area() > rail.area()) rail = s.box;
    }
    const Coord x = std::clamp(wantX, rail.x1 + um(1.4), rail.x2 - um(1.4));
    route::viaStack(top, Point{x, rail.center().y}, t.layer("metal1"),
                    t.layer("metal2"), *n);
    route::wireStraight(top, t.layer("metal2"), Point{x, rail.center().y},
                        Point{x, yChanTop}, um(2), *n);
    return x;
  };
  const Coord xA_t = dropPin("outa", um(30));
  const Coord xB_t = dropPin("out", um(50));

  // The pair's outb column sits next to the mirror's input column; dogleg
  // its pin eastwards so the channel sees distinct columns.
  const Coord xB_b2 = xB_b + um(8);
  route::wireStraight(top, t.layer("metal2"), Point{xB_b, yChanBot - um(1)},
                      Point{xB_b2, yChanBot - um(1)}, um(2), *top.findNet("outb"));
  route::wireStraight(top, t.layer("metal2"), Point{xB_b2, yChanBot - um(1)},
                      Point{xB_b2, yChanBot}, um(2), *top.findNet("outb"));

  const int tracks = route::channelRoute(
      top,
      {{"outa", xA_t, xA_b}, {"outb_to_out", xB_t, xB_b2}},
      yChanBot, yChanTop, t.layer("metal1"), t.layer("metal2"));
  // The second channel net joins outb (below) to out (above): unify names.
  if (auto bridge = top.findNet("outb_to_out")) {
    top.moveNet(*top.findNet("outb"), *bridge);
    top.moveNet(*top.findNet("out"), *bridge);
  }
  std::printf("  channel routed with %d track(s)\n", tracks);

  // --- 4. verification -------------------------------------------------------
  const int subContacts = drc::insertSubstrateContacts(top, "gnd");
  const auto violations = drc::check(top);
  std::printf("  substrate contacts inserted: %d; DRC violations: %zu\n", subContacts,
              violations.size());
  for (const auto& v : violations)
    std::printf("    [%s] %s\n", drc::violationName(v.kind), v.message.c_str());

  const auto lvsRes = drc::lvs(top,
                               {
                                   {"inp", "outa", "tail"},
                                   {"inn", "tail", "outb_to_out"},
                                   {"outa", "vdd", "outb_to_out"},
                                   {"outa", "vdd", "outa"},
                                   {"outa", "vdd", "outa"},
                                   {"outa", "vdd", "outb_to_out"},
                               });
  std::printf("  LVS: %s (%d layout devices vs %d netlist devices)\n",
              lvsRes.matched ? "matched" : "MISMATCH", lvsRes.layoutDevices,
              lvsRes.netlistDevices);
  for (const auto& msg : lvsRes.messages) std::printf("    %s\n", msg.c_str());

  // --- 5. export --------------------------------------------------------------
  io::writeSvg(top, "full_flow.svg");
  io::writeCif(top, "full_flow.cif");
  io::writeGds(top, "full_flow.gds");
  std::printf("  wrote full_flow.{svg,cif,gds}; total %.0f x %.0f um\n",
              (double)top.bbox().width() / kMicron,
              (double)top.bbox().height() / kMicron);

  const bool flowOk = violations.empty() && lvsRes.matched;
  if (!recordPath.empty()) {
    obs::TraceHeader hdr;
    hdr.tool = "full_flow";
    hdr.techSpec = "bicmos1u";
    hdr.techFingerprint = gen::techFingerprint(t);
    hdr.cacheEnabled = false;
    hdr.prefixCacheEnabled = false;
    try {
      obs::Recorder recorder(recordPath, std::move(hdr));
      obs::RequestRecord rec;
      rec.kind = obs::RequestKind::External;
      rec.name = "full_flow.top";
      rec.outcome.ok = flowOk;
      const std::vector<std::uint8_t> bytes = io::serializeLayout(top);
      rec.outcome.layoutHash = util::fnv1a(
          std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()));
      rec.outcome.shapeCount = top.shapeCount();
      if (!flowOk) rec.outcome.diagCode = "AMG-FLOW-001";
      rec.outcome.wallMs = flowSpan.elapsedSeconds() * 1e3;
      recorder.append(rec);
      std::printf("  recorded 1 request to %s\n", recordPath.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  obs::finishCli(obsOpts);
  return flowOk ? 0 : 1;
}

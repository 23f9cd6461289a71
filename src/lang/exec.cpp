#include "lang/exec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>

#include "compact/compactor.h"
#include "compact/prefix.h"
#include "lang/token.h"
#include "obs/obs.h"
#include "primitives/primitives.h"
#include "route/router.h"

namespace amg::lang::exec {
namespace {

Coord toCoord(double microns) {
  return static_cast<Coord>(std::llround(microns * kMicron));
}

tech::LayerId layerOf(const ExecContext& ctx, const Value& v, int line) {
  try {
    return ctx.tech->layer(v.asString());
  } catch (const Error& err) {
    fail("AMG-INTERP-010", err.what(), line, 0,
         "valid layer names are listed in the technology file (see "
         "docs/TECHFILE.md)");
  }
}

std::optional<Coord> optCoord(const Value& v) {
  if (v.isNone()) return std::nullopt;
  return toCoord(v.asNumber());
}

db::NetId optNet(db::Module& m, const Value& v) {
  if (v.isNone()) return db::kNoNet;
  return m.net(v.asString());
}

/// Self without flushing a deferred prefix-cache restore — only for
/// doCompact(), which manages the deferral itself.
db::Module& requireSelfRaw(const ExecContext& ctx, int line) {
  if (!ctx.self)
    fail("AMG-INTERP-007", "geometry statement outside an entity body", line, 0,
         "primitive calls build the entity under construction; move this "
         "statement into an ENT body");
  return *ctx.self;
}

db::Module& requireSelf(const ExecContext& ctx, int line) {
  db::Module& m = requireSelfRaw(ctx, line);
  // The builtin is about to read or mutate self directly; a parked
  // prefix-cache snapshot must land first (compact/prefix.h).
  if (ctx.prefix) compact::prefixSync(m);
  return m;
}

/// Bind evaluated arguments against a builtin's declared slots — the same
/// algorithm (and the same diagnostics) the tree-walking oracle uses,
/// operating on values instead of unevaluated expressions.
std::vector<Value> bindSlots(const BuiltinSig& sig, std::vector<RawArg>& args,
                             int line, int col) {
  const char* f = sig.name;
  std::vector<std::string_view> names;
  names.reserve(sig.slots.size());
  for (const SlotSig& s : sig.slots) names.emplace_back(s.name);
  std::vector<Value> vals(names.size());
  std::vector<bool> filled(names.size(), false);
  std::size_t nextPos = 0;
  for (RawArg& a : args) {
    if (a.name) {
      const auto it = std::find(names.begin(), names.end(), *a.name);
      if (it == names.end()) {
        std::string signature;
        for (const auto& nm : names)
          signature += (signature.empty() ? "" : ", ") + std::string(nm);
        fail("AMG-INTERP-003",
             std::string(f) + "() has no parameter '" + *a.name + "'", line, col,
             "the signature is " + std::string(f) + "(" + signature + ")");
      }
      const auto idx = static_cast<std::size_t>(it - names.begin());
      vals[idx] = std::move(a.value);
      filled[idx] = true;
    } else {
      while (nextPos < names.size() && filled[nextPos]) ++nextPos;
      if (nextPos >= names.size())
        fail("AMG-INTERP-004", "too many arguments for " + std::string(f) + "()",
             line, col, "see docs/LANGUAGE.md for the builtin signatures");
      vals[nextPos] = std::move(a.value);
      filled[nextPos] = true;
      ++nextPos;
    }
  }
  for (std::size_t i = 0; i < sig.required; ++i)
    if (vals[i].isNone())
      fail("AMG-INTERP-005",
           std::string(f) + "(): required argument '" + std::string(names[i]) +
               "' missing",
           line, col,
           "pass it positionally or as " + std::string(names[i]) + "=...");
  return vals;
}

// --- one implementation per builtin ---------------------------------------
// `a` holds the bound slots for regular builtins; POLY/compact/print are
// variadic and receive the raw evaluated arguments instead.

using A = std::vector<Value>;
using Raw = std::vector<RawArg>;

Value doInbox(ExecContext& ctx, A& a, int line, int /*col*/) {
  db::Module& m = requireSelf(ctx, line);
  prim::inbox(m, layerOf(ctx, a[0], line), optCoord(a[1]), optCoord(a[2]),
              optNet(m, a[3]));
  return Value{};
}

Value doAround(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  prim::around(m, layerOf(ctx, a[0], line), {}, optCoord(a[1]).value_or(0),
               optNet(m, a[2]));
  return Value{};
}

Value doArray(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  prim::array(m, layerOf(ctx, a[0], line), {}, optNet(m, a[1]));
  return Value{};
}

Value doRing(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  prim::ring(m, layerOf(ctx, a[0], line), optCoord(a[1]), optCoord(a[2]), {},
             optNet(m, a[3]));
  return Value{};
}

Value doTworects(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  prim::tworects(m, layerOf(ctx, a[0], line), layerOf(ctx, a[1], line),
                 toCoord(a[2].asNumber()), toCoord(a[3].asNumber()),
                 optNet(m, a[4]), optNet(m, a[5]));
  return Value{};
}

Value doAngle(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  prim::angleAdaptor(m, layerOf(ctx, a[0], line),
                     Point{toCoord(a[1].asNumber()), toCoord(a[2].asNumber())},
                     toCoord(a[3].asNumber()), toCoord(a[4].asNumber()),
                     optCoord(a[5]), optNet(m, a[6]));
  return Value{};
}

Value doPoly(ExecContext& ctx, Raw& raw, int line, int col) {
  // POLY(layer, x1, y1, x2, y2, ... [, net = "..."]): rectilinear polygon,
  // converted to rectangles.
  if (raw.size() < 7)
    fail("AMG-INTERP-011", "POLY(layer, x1, y1, ... ) needs at least 3 vertices",
         line, col, "");
  db::Module& m = requireSelf(ctx, line);
  tech::LayerId layer = 0;
  geom::Polygon pts;
  db::NetId net = db::kNoNet;
  bool first = true;
  std::optional<double> pendingX;
  for (const RawArg& a : raw) {
    if (a.name) {
      if (*a.name != "net")
        fail("AMG-INTERP-003", "POLY(): unknown named argument '" + *a.name + "'",
             line, col, "POLY takes coordinates plus an optional net=...");
      net = m.net(a.value.asString());
      continue;
    }
    const Value& v = a.value;
    if (first) {
      layer = layerOf(ctx, v, line);
      first = false;
    } else if (!pendingX) {
      pendingX = v.asNumber();
    } else {
      pts.push_back(Point{toCoord(*pendingX), toCoord(v.asNumber())});
      pendingX.reset();
    }
  }
  if (pendingX)
    fail("AMG-INTERP-011", "POLY(): odd number of coordinates", line, col,
         "vertices are x,y pairs");
  prim::polygon(m, layer, pts, net);
  return Value{};
}

Value doWire(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  route::wireStraight(m, layerOf(ctx, a[0], line),
                      Point{toCoord(a[1].asNumber()), toCoord(a[2].asNumber())},
                      Point{toCoord(a[3].asNumber()), toCoord(a[4].asNumber())},
                      optCoord(a[5]), optNet(m, a[6]));
  return Value{};
}

Value doVia(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  route::viaStack(m, Point{toCoord(a[0].asNumber()), toCoord(a[1].asNumber())},
                  layerOf(ctx, a[2], line), layerOf(ctx, a[3], line),
                  optNet(m, a[4]));
  return Value{};
}

Value doCompact(ExecContext& ctx, Raw& raw, int line, int col) {
  if (raw.size() < 2)
    fail("AMG-INTERP-011", "compact(obj, direction, [layers...])", line, col,
         "compact needs an object and a direction, e.g. compact(row, WEST)");
  for (const RawArg& a : raw)
    if (a.name)
      fail("AMG-INTERP-011", "compact() takes positional arguments", line, col,
           "");
  db::Module& m = requireSelfRaw(ctx, line);
  compact::Options opt;
  for (std::size_t i = 2; i < raw.size(); ++i)
    opt.ignoreLayers.push_back(layerOf(ctx, raw[i].value, line));
  const db::Module& obj = raw[0].value.asObject();
  const Dir dir = raw[1].value.asDir();
  bool restored = false;
  if (ctx.prefix)
    restored = compact::prefixStep(*ctx.prefix, m, obj, dir, opt);
  else
    compact::compact(m, obj, dir, opt);
  ++ctx.stats->compactions;
  if (restored) ++ctx.stats->prefixRestored;
  OBS_COUNT("lang.compactions");
  obs::flight::mark("lang.compact", restored ? "restored" : "executed");
  return Value{};
}

Value doPin(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  m.addPort(a[0].asString(),
            Point{toCoord(a[1].asNumber()), toCoord(a[2].asNumber())},
            layerOf(ctx, a[3], line), optNet(m, a[4]));
  return Value{};
}

Value doSetnet(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  const auto layer = layerOf(ctx, a[0], line);
  const db::NetId net = m.net(a[1].asString());
  for (db::ShapeId id : m.shapesOn(layer)) m.shape(id).net = net;
  return Value{};
}

Value doRenamenet(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  if (auto old = m.findNet(a[0].asString()))
    m.moveNet(*old, m.net(a[1].asString()));
  return Value{};
}

Value doVaredge(ExecContext& ctx, A& a, int line, int col) {
  db::Module& m = requireSelf(ctx, line);
  const auto layer = layerOf(ctx, a[0], line);
  const std::string side = a[1].asString();
  for (db::ShapeId id : m.shapesOn(layer)) {
    auto& flags = m.shape(id).varEdges;
    if (side == "all") {
      flags = db::EdgeFlags::allVariable();
    } else if (side == "left") flags.setVariable(Side::Left, true);
    else if (side == "right") flags.setVariable(Side::Right, true);
    else if (side == "top") flags.setVariable(Side::Top, true);
    else if (side == "bottom") flags.setVariable(Side::Bottom, true);
    else
      fail("AMG-INTERP-011", "varedge(): bad side '" + side + "'", line, col,
           "sides are left|right|top|bottom|all");
  }
  return Value{};
}

Value doAvoidoverlap(ExecContext& ctx, A& a, int line, int) {
  db::Module& m = requireSelf(ctx, line);
  for (db::ShapeId id : m.shapesOn(layerOf(ctx, a[0], line)))
    m.shape(id).avoidOverlap = true;
  return Value{};
}

Value doMirrorx(ExecContext&, A& a, int, int) {
  db::Module m = a[0].asObject();
  const Coord axis =
      a[1].isNone() ? m.bboxAll().center().x : toCoord(a[1].asNumber());
  m.transform(geom::Transform::mirrorX(axis));
  return Value::object(std::move(m));
}

Value doMirrory(ExecContext&, A& a, int, int) {
  db::Module m = a[0].asObject();
  const Coord axis =
      a[1].isNone() ? m.bboxAll().center().y : toCoord(a[1].asNumber());
  m.transform(geom::Transform::mirrorY(axis));
  return Value::object(std::move(m));
}

Value doRot180(ExecContext&, A& a, int, int) {
  db::Module m = a[0].asObject();
  m.transform(geom::Transform::rotate180(m.bboxAll().center()));
  return Value::object(std::move(m));
}

Value doArea(ExecContext&, A& a, int, int) {
  const Box bb = a[0].asObject().bbox();
  return Value::number(static_cast<double>(bb.area()) / (kMicron * kMicron));
}

Value doWidth(ExecContext&, A& a, int, int) {
  return Value::number(static_cast<double>(a[0].asObject().bbox().width()) /
                       kMicron);
}

Value doHeight(ExecContext&, A& a, int, int) {
  return Value::number(static_cast<double>(a[0].asObject().bbox().height()) /
                       kMicron);
}

Value doMinwidth(ExecContext& ctx, A& a, int line, int) {
  return Value::number(
      static_cast<double>(ctx.tech->minWidth(layerOf(ctx, a[0], line))) /
      kMicron);
}

Value doFloor(ExecContext&, A& a, int, int) {
  return Value::number(std::floor(a[0].asNumber()));
}

Value doMin(ExecContext&, A& a, int, int) {
  return Value::number(std::min(a[0].asNumber(), a[1].asNumber()));
}

Value doMax(ExecContext&, A& a, int, int) {
  return Value::number(std::max(a[0].asNumber(), a[1].asNumber()));
}

Value doIsset(ExecContext&, A& a, int, int) {
  return Value::number(a[0].isNone() ? 0.0 : 1.0);
}

Value doPrint(ExecContext& ctx, Raw& raw, int, int) {
  std::ostringstream os;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i) os << ' ';
    const Value& v = raw[i].value;
    // Strings print raw, everything else in display form.
    if (v.kind() == Value::Kind::String)
      os << v.asString();
    else
      os << v.str();
  }
  ctx.output->push_back(os.str());
  return Value{};
}

// --- dispatch --------------------------------------------------------------

struct Handler {
  Value (*bound)(ExecContext&, A&, int, int) = nullptr;   ///< regular builtins
  Value (*variadic)(ExecContext&, Raw&, int, int) = nullptr;  ///< POLY/compact/print
};

/// Handlers in ordinal order (the builtinSignatures() index), resolved by
/// name once — a signature without an implementation trips the check below
/// at first use, not silently at some later call.
const std::vector<Handler>& handlers() {
  static const std::vector<Handler> table = [] {
    struct Named {
      const char* name;
      Handler h;
    };
    const Named impls[] = {
        {"INBOX", {&doInbox, nullptr}},
        {"AROUND", {&doAround, nullptr}},
        {"ARRAY", {&doArray, nullptr}},
        {"RING", {&doRing, nullptr}},
        {"TWORECTS", {&doTworects, nullptr}},
        {"ANGLE", {&doAngle, nullptr}},
        {"POLY", {nullptr, &doPoly}},
        {"WIRE", {&doWire, nullptr}},
        {"VIA", {&doVia, nullptr}},
        {"compact", {nullptr, &doCompact}},
        {"PIN", {&doPin, nullptr}},
        {"setnet", {&doSetnet, nullptr}},
        {"renamenet", {&doRenamenet, nullptr}},
        {"varedge", {&doVaredge, nullptr}},
        {"avoidoverlap", {&doAvoidoverlap, nullptr}},
        {"mirrorx", {&doMirrorx, nullptr}},
        {"mirrory", {&doMirrory, nullptr}},
        {"rot180", {&doRot180, nullptr}},
        {"area", {&doArea, nullptr}},
        {"width", {&doWidth, nullptr}},
        {"height", {&doHeight, nullptr}},
        {"minwidth", {&doMinwidth, nullptr}},
        {"floor", {&doFloor, nullptr}},
        {"min", {&doMin, nullptr}},
        {"max", {&doMax, nullptr}},
        {"isset", {&doIsset, nullptr}},
        {"print", {nullptr, &doPrint}},
    };
    const auto& sigs = builtinSignatures();
    std::vector<Handler> t(sigs.size());
    for (const Named& n : impls)
      for (std::size_t i = 0; i < sigs.size(); ++i)
        if (std::string_view(sigs[i].name) == n.name) t[i] = n.h;
    return t;
  }();
  return table;
}

}  // namespace

void fail(std::string code, std::string msg, int line, int col,
          std::string hint) {
  throw LangError(util::Diag{std::move(code), std::move(msg),
                             {"", line, col}, std::move(hint)});
}

Value callBuiltin(ExecContext& ctx, std::size_t ordinal,
                  std::vector<RawArg>& args, int line, int col) {
  const BuiltinSig& sig = builtinSignatures()[ordinal];
  const Handler& h = handlers()[ordinal];
  try {
    if (h.variadic) return h.variadic(ctx, args, line, col);
    if (h.bound) {
      std::vector<Value> a = bindSlots(sig, args, line, col);
      return h.bound(ctx, a, line, col);
    }
  } catch (const LangError&) {
    obs::flight::mark("lang.builtin.fail", sig.name);
    throw;
  } catch (const DesignRuleError&) {
    // Breadcrumb for post-mortems: which builtin tripped the rule that a
    // VARIANT may be about to roll back on (obs/flight.h).
    obs::flight::mark("lang.designrule.fail", sig.name);
    throw;  // preserved for VARIANT backtracking
  } catch (const util::DiagError& err) {
    obs::flight::mark("lang.builtin.fail", sig.name);
    util::Diag d = err.diag();
    if (!d.loc.known()) d.loc = {"", line, col};
    d.message += " (in " + std::string(sig.name) + "())";
    throw LangError(std::move(d));
  } catch (const Error& err) {
    obs::flight::mark("lang.builtin.fail", sig.name);
    fail("AMG-INTERP-012",
         std::string(err.what()) + " (in " + std::string(sig.name) + "())", line,
         col, "");
  }
  // The table and the handlers cover the same set; reaching here means a
  // signature was added without an implementation.
  fail("AMG-INTERP-011",
       "builtin '" + std::string(sig.name) + "' has no implementation", line,
       col, "");
}

}  // namespace amg::lang::exec

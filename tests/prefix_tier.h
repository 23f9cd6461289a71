// Runs a test body once with the compactor-prefix cache tier on and once
// with it off (docs/CACHING.md): generation must be byte-identical whether
// or not steps are restored from cache.
#pragma once

#include <gtest/gtest.h>

#include "gen/engine.h"

namespace amg::testutil {

/// Calls `body(cfg)` with a default gen::EngineConfig whose prefixCache is
/// true, then false.
template <class Body>
void forBothPrefixTiers(Body&& body) {
  for (const bool on : {true, false}) {
    SCOPED_TRACE(on ? "prefix tier on" : "prefix tier off");
    gen::EngineConfig cfg;
    cfg.prefixCache = on;
    body(cfg);
  }
}

}  // namespace amg::testutil

// AST → bytecode compiler for the layout DSL, plus the process-wide
// compiled-chunk cache.
//
// The compiler is *total*: it never raises on semantically questionable
// input (the analyzer is the front-end gate; compile only what lints
// clean).  The handful of call-shape errors the interpreter detects before
// running anything compile into RAISE ops carrying the prebuilt
// diagnostic, so a bad script fails identically under both engines.
//
// The chunk cache keys on the *raw* source text itself — not a digest of
// it, and not the canonicalized form the layout cache uses — because
// diagnostics and the line table depend on comments and whitespace, and
// because a hit must be the same program by construction.  A warm gen::BatchEngine job therefore skips lex + parse +
// compile entirely and goes straight to execution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "lang/ast.h"
#include "lang/bytecode.h"

namespace amg::lang {

/// Compile a parsed program.  Never throws on valid AST.  Returns a
/// mutable program so the caller (normally compileCached's verification
/// post-pass) can stamp the verified bits before publishing it as const.
std::shared_ptr<CompiledProgram> compile(const Program& prog);

/// Programs the chunk cache holds before it evicts the least recently used.
inline constexpr std::size_t kChunkCacheCapacity = 256;

/// Lex + parse + compile `source`, memoized process-wide on the raw text
/// (at most kChunkCacheCapacity programs).
/// Lex/parse errors (LangError) propagate and are never cached.  Every
/// freshly compiled chunk must pass the bytecode verifier (assert in
/// debug, LangError with the AMG-B diag in release) before it is stamped
/// verified and admitted to the cache; the VM runs nothing else.
/// Thread-safe.
std::shared_ptr<const CompiledProgram> compileCached(const std::string& source);

/// Chunk-cache telemetry (also exported as vm.chunk_cache.* obs counters).
struct ChunkCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
};
ChunkCacheStats chunkCacheStats();
/// Drop every cached program and zero the stats (bench cold runs, tests).
void clearChunkCache();

}  // namespace amg::lang

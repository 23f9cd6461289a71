// Static analyzer / linter for layout-description-language scripts: the
// command-line surface of src/analysis (docs/LINT.md has the full AMG-L*
// finding registry).
//
//   $ ./amg_lint ../scripts/diffpair.amg
//   $ ./amg_lint --Werror --builtin ../scripts/*.amg      # the CI gate
//   $ ./amg_lint --tech cmos2u --json lint.json my_module.amg
//
// All named files are analyzed as ONE program (entities accumulate across
// files, like Interpreter::loadEntities), so a library file and the script
// calling it lint together.  Exit status: 0 = clean, 1 = findings fail the
// run (errors, or any warning under --Werror), 2 = usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/bcverify.h"
#include "cli_common.h"
#include "lang/compiler.h"
#include "modules/dsl_sources.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "tech/techfile.h"

using namespace amg;

namespace {

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options] <script.amg>...\n"
      "  --tech T        deck to validate layer names against: bicmos1u"
      " (default), cmos2u, a .tech path, or 'none' to skip the tech pass\n"
      "  --Werror        treat warnings as errors (exit 1 on any finding)\n"
      "  --builtin       also lint the built-in library modules"
      " (ContactRow, Trans, DiffPair)\n"
      "  --json FILE     write the findings as a JSON report to FILE\n"
      "  --quiet         suppress per-finding output; summary line only\n"
      "  --dump-bc       after a clean lint, disassemble each file's compiled\n"
      "                  bytecode with source lines interleaved and each\n"
      "                  instruction's abstract stack depth in a [n] column"
      " (docs/BYTECODE.md)\n"
      "  --verify-bc     after a clean lint, run the bytecode verifier on each\n"
      "                  file's compiled chunks and report AMG-B* findings"
      " (docs/LINT.md)\n"
      "  --help          show this help and exit\n%s",
      argv0, obs::cliUsage());
}

struct Source {
  std::string file;
  std::string text;
};

}  // namespace

int main(int argc, char** argv) {
  obs::flight::installCrashHandlers();
  std::string techSpec = "bicmos1u", jsonPath;
  bool werror = false, builtin = false, quiet = false, dumpBc = false,
       verifyBc = false;
  obs::CliOptions obsOpts;
  std::vector<const char*> positional;

  for (int i = 1; i < argc; ++i) {
    if (obs::parseCliFlag(argc, argv, i, obsOpts)) continue;
    if (std::strncmp(argv[i], "--tech=", 7) == 0)
      techSpec = argv[i] + 7;
    else if (std::strcmp(argv[i], "--tech") == 0 && i + 1 < argc)
      techSpec = argv[++i];
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      jsonPath = argv[i] + 7;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      jsonPath = argv[++i];
    else if (std::strcmp(argv[i], "--Werror") == 0)
      werror = true;
    else if (std::strcmp(argv[i], "--builtin") == 0)
      builtin = true;
    else if (std::strcmp(argv[i], "--quiet") == 0)
      quiet = true;
    else if (std::strcmp(argv[i], "--dump-bc") == 0)
      dumpBc = true;
    else if (std::strcmp(argv[i], "--verify-bc") == 0)
      verifyBc = true;
    else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], stdout);
      return 0;
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      usage(argv[0], stderr);
      return 2;
    } else
      positional.push_back(argv[i]);
  }
  if (positional.empty() && !builtin) {
    usage(argv[0], stderr);
    return 2;
  }

  analysis::Options opt;
  std::shared_ptr<const tech::Technology> tech;
  if (techSpec != "none") {
    try {
      tech = tech::resolveTech(techSpec);
      opt.tech = tech.get();
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  std::vector<Source> sources;
  for (const char* path : positional) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "cannot open '%s'\n", path);
      return 2;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    sources.push_back(Source{path, ss.str()});
  }
  if (builtin) {
    sources.push_back(Source{"<builtin:ContactRow>", modules::dsl::kContactRow});
    sources.push_back(Source{"<builtin:Trans>", modules::dsl::kTrans});
    sources.push_back(Source{"<builtin:DiffPair>", modules::dsl::kDiffPair});
  }

  analysis::Analyzer analyzer(opt);
  for (const Source& s : sources) analyzer.addSource(s.text, s.file);
  const analysis::Report rep = analyzer.run();

  if (!quiet)
    for (const analysis::Finding& f : rep.findings) {
      std::string_view source;
      for (const Source& s : sources)
        if (s.file == f.diag.loc.file) source = s.text;
      cli::printDiag(f.diag, source, analysis::severityName(f.severity), stdout);
    }
  std::printf("amg_lint: %zu file(s): %zu error(s), %zu warning(s), %zu"
              " note(s)%s\n",
              sources.size(), rep.errors, rep.warnings, rep.notes,
              werror && rep.warnings ? " [--Werror]" : "");

  if (!jsonPath.empty()) {
    std::FILE* jf = std::fopen(jsonPath.c_str(), "wb");
    if (!jf) {
      std::fprintf(stderr, "cannot write '%s'\n", jsonPath.c_str());
      return 2;
    }
    obs::JsonWriter w(jf);
    w.beginObject();
    w.field("tool", "amg_lint");
    w.field("tech", opt.tech ? opt.tech->name().c_str() : "none");
    w.field("werror", werror);
    w.beginArray("files");
    for (const Source& s : sources) w.value(s.file);
    w.end();
    w.beginArray("findings");
    for (const analysis::Finding& f : rep.findings) {
      w.beginObject();
      w.field("severity", analysis::severityName(f.severity));
      w.field("code", f.diag.code);
      w.field("file", f.diag.loc.file);
      w.field("line", f.diag.loc.line);
      w.field("col", f.diag.loc.col);
      w.field("message", f.diag.message);
      if (!f.diag.hint.empty()) w.field("hint", f.diag.hint);
      w.end();
    }
    w.end();
    w.field("errors", static_cast<std::uint64_t>(rep.errors));
    w.field("warnings", static_cast<std::uint64_t>(rep.warnings));
    w.field("notes", static_cast<std::uint64_t>(rep.notes));
    w.field("clean", rep.clean(werror));
    w.end();
    std::fputc('\n', jf);
    std::fclose(jf);
  }

  std::size_t bcFindings = 0;
  if ((dumpBc || verifyBc) && rep.clean(werror)) {
    // Disassembly/verification describe what would run, so only lint-clean
    // files are processed (a broken script has no meaningful bytecode).
    for (const Source& s : sources) {
      std::shared_ptr<const lang::CompiledProgram> prog;
      try {
        prog = lang::compileCached(s.text);
      } catch (const util::DiagError& e) {
        cli::printDiag(e.diag(), s.text);
        obs::finishCli(obsOpts);
        return 1;
      }
      // compileCached already gates on the verifier; running it again here
      // is deliberate: --dump-bc wants the per-instruction depth table.
      const analysis::ProgramVerification v = analysis::verifyProgram(*prog);
      if (verifyBc) {
        for (const util::Diag& d : v.diags)
          cli::printDiag(d, s.text, "error", stdout);
        bcFindings += v.diags.size();
        if (!quiet)
          std::printf("amg_lint: %s: bytecode %s (%zu chunk(s))\n",
                      s.file.c_str(), v.ok() ? "verified" : "REJECTED",
                      1 + prog->entities.size());
      }
      if (dumpBc) {
        std::printf(";; %s\n", s.file.c_str());
        // The [n] column is the verifier's abstract stack depth on entry
        // to each instruction; '-' marks unreachable code.
        const lang::DisasmAnnotator depth = [&v](const lang::Chunk& c,
                                                 std::uint32_t off) {
          const auto it = v.depths.find(&c);
          if (it == v.depths.end() || off >= it->second.size() ||
              it->second[off] < 0)
            return std::string("-");
          return std::to_string(it->second[off]);
        };
        std::fputs(lang::disassemble(*prog, s.text, depth).c_str(), stdout);
      }
    }
  }

  obs::finishCli(obsOpts);
  return rep.clean(werror) && !bcFindings ? 0 : 1;
}

// libamgen C-ABI tests: lifecycle safety, byte-identity with the
// in-process gen::BatchEngine, diagnostic fidelity across the boundary,
// cache control, AMGT recording, and NULL/double-destroy hardening —
// every contract docs/EMBEDDING.md promises.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "amgen.h"
#include "gen/engine.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "obs/recorder.h"
#include "prefix_tier.h"
#include "tech/builtin.h"
#include "util/version.h"

namespace {

using namespace amg;

const char* kContactRow =
    "ENT ContactRow(layer, <W>, <L>)\n"
    "  INBOX(layer, W, L)\n"
    "  INBOX(\"metal1\")\n"
    "  ARRAY(\"contact\")\n";

const char* kBadScript = "row = ContactRow(W = 4)\n";  // undefined entity

std::string tmpPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

amg_request contactRowRequest(const char* name, const amg_param* params,
                              std::size_t count) {
  amg_request req;
  amg_request_init(&req);
  req.name = name;
  req.script = kContactRow;
  req.entity = "ContactRow";
  req.params = params;
  req.param_count = count;
  return req;
}

TEST(CapiTest, VersionIdentity) {
  EXPECT_STREQ(amg_version(), util::kVersionString);
  EXPECT_EQ(amg_api_version(), AMGEN_API_VERSION);
  amg_version_info vi;
  amg_version_info_get(&vi);
  EXPECT_EQ(vi.api, util::kApiVersion);
  EXPECT_EQ(vi.layout_format, util::kLayoutFormatVersion);
  EXPECT_EQ(vi.trace_format, util::kTraceFormatVersion);
  EXPECT_EQ(vi.bytecode, util::kBytecodeVersion);
}

TEST(CapiTest, NullSafety) {
  // Every destroy accepts NULL; accessors degrade instead of crashing.
  amg_engine_destroy(nullptr);
  amg_batch_destroy(nullptr);
  amg_result_destroy(nullptr);
  amg_version_info_get(nullptr);
  amg_config_init(nullptr);
  amg_request_init(nullptr);
  EXPECT_EQ(amg_batch_size(nullptr), 0u);
  EXPECT_EQ(amg_batch_result(nullptr, 0), nullptr);
  EXPECT_EQ(amg_result_ok(nullptr), 0);
  EXPECT_STREQ(amg_result_name(nullptr), "");
  EXPECT_EQ(amg_engine_tech_fingerprint(nullptr), 0u);
  EXPECT_EQ(amg_record_active(nullptr), 0);

  EXPECT_EQ(amg_generate(nullptr, nullptr, nullptr), AMG_E_INVALID);
  amg_diag d;
  EXPECT_EQ(amg_last_error(&d), 1);
  EXPECT_STREQ(d.code, "AMG-CAPI-002");
  amg_clear_last_error();
  EXPECT_EQ(amg_last_error(&d), 0);
}

TEST(CapiTest, BadTechSpecFailsWithDiagnostic) {
  amg_engine* e = amg_engine_create("/nonexistent/deck.tech", nullptr);
  EXPECT_EQ(e, nullptr);
  amg_diag d;
  ASSERT_EQ(amg_last_error(&d), 1);
  EXPECT_NE(std::string(d.message).find("deck.tech"), std::string::npos);
}

TEST(CapiTest, GenerateAndExtract) {
  amg_engine* e = amg_engine_create("bicmos1u", nullptr);
  ASSERT_NE(e, nullptr);
  EXPECT_NE(amg_engine_tech_fingerprint(e), 0u);

  const amg_param params[] = {{"layer", "poly"}, {"W", "4"}};
  const amg_request req = contactRowRequest("row", params, 2);
  amg_result* r = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r), AMG_OK);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(amg_result_ok(r), 1);
  EXPECT_STREQ(amg_result_name(r), "row");
  EXPECT_GT(amg_result_shape_count(r), 0u);
  EXPECT_NE(amg_result_layout_hash(r), 0u);
  EXPECT_NE(amg_result_key(r), 0u);
  amg_diag d;
  EXPECT_EQ(amg_result_diag(r, &d), 0);

  // Lazy AMGL extraction: stable pointer, decodable, hash-consistent.
  const uint8_t* data = nullptr;
  size_t size = 0;
  ASSERT_EQ(amg_result_layout_data(r, &data, &size), AMG_OK);
  ASSERT_NE(data, nullptr);
  ASSERT_GT(size, 0u);
  const uint8_t* data2 = nullptr;
  size_t size2 = 0;
  ASSERT_EQ(amg_result_layout_data(r, &data2, &size2), AMG_OK);
  EXPECT_EQ(data, data2);  // cached, not re-serialized
  EXPECT_EQ(size, size2);
  const std::vector<std::uint8_t> bytes(data, data + size);
  const db::Module m = io::deserializeLayout(bytes, tech::bicmos1u());
  EXPECT_EQ(m.shapeCount(), amg_result_shape_count(r));

  amg_result_destroy(r);
  amg_engine_destroy(e);
}

TEST(CapiTest, FailedJobIsDataNotError) {
  amg_engine* e = amg_engine_create(nullptr, nullptr);
  ASSERT_NE(e, nullptr);
  amg_request req;
  amg_request_init(&req);
  req.name = "bad";
  req.script = kBadScript;
  amg_result* r = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r), AMG_OK);  // API succeeded...
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(amg_result_ok(r), 0);  // ...the job did not
  amg_diag d;
  ASSERT_EQ(amg_result_diag(r, &d), 1);
  EXPECT_NE(std::string(d.code).find("AMG-"), std::string::npos);
  EXPECT_GT(d.line, 0);

  // Extraction/export on a failed result is a state error.
  const uint8_t* data = nullptr;
  size_t size = 0;
  EXPECT_EQ(amg_result_layout_data(r, &data, &size), AMG_E_STATE);
  EXPECT_EQ(amg_result_export(r, AMG_EXPORT_SVG, "/tmp/x.svg"), AMG_E_STATE);
  amg_result_destroy(r);
  amg_engine_destroy(e);
}

TEST(CapiTest, BatchMatchesInProcessEngineByteForByte) {
  // The same sweep through the C ABI and through gen::BatchEngine directly
  // must produce byte-identical AMGL payloads.
  std::vector<gen::Job> jobs;
  std::vector<std::vector<amg_param>> paramStore;
  std::vector<amg_request> reqs;
  for (int w = 1; w <= 5; ++w) {
    gen::Job j;
    j.name = "crow_W" + std::to_string(w);
    j.script = kContactRow;
    j.scriptPath = "<embedded>";
    j.entity = "ContactRow";
    j.params = {{"layer", "poly"}, {"W", std::to_string(w)}};
    jobs.push_back(j);
    paramStore.push_back({{"layer", "poly"}, {"W", nullptr}});
  }
  std::vector<std::string> wVals;
  for (int w = 1; w <= 5; ++w) wVals.push_back(std::to_string(w));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    paramStore[i][1].value = wVals[i].c_str();
    amg_request r = contactRowRequest(jobs[i].name.c_str(),
                                      paramStore[i].data(), 2);
    reqs.push_back(r);
  }

  testutil::forBothPrefixTiers([&](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    const gen::BatchReport direct = engine.run(jobs);

    amg_config c;
    amg_config_init(&c);
    c.prefix_cache = cfg.prefixCache ? 1 : 0;
    amg_engine* e = amg_engine_create("bicmos1u", &c);
    ASSERT_NE(e, nullptr);
    amg_batch* b = nullptr;
    ASSERT_EQ(amg_generate_batch(e, reqs.data(), reqs.size(), &b), AMG_OK);
    ASSERT_EQ(amg_batch_size(b), jobs.size());

    amg_batch_info info;
    amg_batch_info_get(b, &info);
    EXPECT_EQ(info.jobs, jobs.size());
    EXPECT_EQ(info.succeeded, direct.succeeded);
    EXPECT_EQ(info.failed, 0u);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      amg_result* r = amg_batch_result(b, i);
      ASSERT_NE(r, nullptr);
      ASSERT_TRUE(direct.jobs[i].ok);
      ASSERT_EQ(amg_result_ok(r), 1);
      EXPECT_EQ(amg_result_key(r), engine.keyOf(jobs[i]));
      EXPECT_EQ(amg_result_layout_hash(r), direct.jobs[i].layoutHash);
      const uint8_t* data = nullptr;
      size_t size = 0;
      ASSERT_EQ(amg_result_layout_data(r, &data, &size), AMG_OK);
      const std::vector<std::uint8_t> viaCapi(data, data + size);
      EXPECT_EQ(viaCapi, io::serializeLayout(*direct.jobs[i].layout))
          << jobs[i].name;
    }
    EXPECT_EQ(amg_batch_result(b, jobs.size()), nullptr);  // out of range
    amg_batch_destroy(b);
    amg_engine_destroy(e);
  });
}

TEST(CapiTest, CacheStatsAndClear) {
  amg_engine* e = amg_engine_create("bicmos1u", nullptr);
  ASSERT_NE(e, nullptr);
  const amg_param params[] = {{"layer", "poly"}, {"W", "3"}};
  const amg_request req = contactRowRequest("row", params, 2);

  amg_result* r1 = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r1), AMG_OK);
  EXPECT_EQ(amg_result_cache_hit(r1), 0);
  amg_result* r2 = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r2), AMG_OK);
  EXPECT_EQ(amg_result_cache_hit(r2), 1);  // resident tier served it

  amg_cache_stats cs;
  ASSERT_EQ(amg_engine_cache_stats(e, &cs), AMG_OK);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.puts, 1u);
  EXPECT_EQ(cs.entries, 1u);
  EXPECT_GT(cs.bytes, 0u);

  ASSERT_EQ(amg_engine_clear_caches(e), AMG_OK);
  ASSERT_EQ(amg_engine_cache_stats(e, &cs), AMG_OK);
  EXPECT_EQ(cs.entries, 0u);
  EXPECT_EQ(cs.hits, 0u);

  amg_result* r3 = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r3), AMG_OK);
  EXPECT_EQ(amg_result_cache_hit(r3), 0);  // cold again after the clear
  EXPECT_EQ(amg_result_layout_hash(r3), amg_result_layout_hash(r1));

  amg_result_destroy(r1);
  amg_result_destroy(r2);
  amg_result_destroy(r3);
  amg_engine_destroy(e);
}

TEST(CapiTest, ExportFormats) {
  amg_engine* e = amg_engine_create("bicmos1u", nullptr);
  ASSERT_NE(e, nullptr);
  const amg_param params[] = {{"layer", "poly"}, {"W", "2"}};
  const amg_request req = contactRowRequest("row", params, 2);
  amg_result* r = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r), AMG_OK);
  ASSERT_EQ(amg_result_ok(r), 1);

  const struct {
    amg_export_format fmt;
    const char* name;
  } cases[] = {{AMG_EXPORT_SVG, "capi_t.svg"},
               {AMG_EXPORT_CIF, "capi_t.cif"},
               {AMG_EXPORT_GDS, "capi_t.gds"},
               {AMG_EXPORT_AMGL, "capi_t.amgl"}};
  for (const auto& c : cases) {
    const std::string path = tmpPath(c.name);
    ASSERT_EQ(amg_result_export(r, c.fmt, path.c_str()), AMG_OK) << c.name;
    EXPECT_GT(std::filesystem::file_size(path), 0u) << c.name;
    std::filesystem::remove(path);
  }
  EXPECT_EQ(amg_result_export(r, AMG_EXPORT_SVG, "/nonexistent-dir/x.svg"),
            AMG_E_IO);
  amg_result_destroy(r);
  amg_engine_destroy(e);
}

TEST(CapiTest, RecordingReplaysCleanly) {
  const std::string trace = tmpPath("capi_t.amgt");
  amg_engine* e = amg_engine_create("bicmos1u", nullptr);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(amg_record_active(e), 0);
  uint64_t n = 7;
  EXPECT_EQ(amg_record_stop(e, &n), AMG_E_STATE);  // nothing active

  ASSERT_EQ(amg_record_start(e, trace.c_str(), "capi_test"), AMG_OK);
  EXPECT_EQ(amg_record_active(e), 1);
  EXPECT_EQ(amg_record_start(e, trace.c_str(), "x"), AMG_E_STATE);

  const amg_param params[] = {{"layer", "poly"}, {"W", "4"}};
  const amg_request req = contactRowRequest("row", params, 2);
  amg_result* r = nullptr;
  ASSERT_EQ(amg_generate(e, &req, &r), AMG_OK);
  amg_request bad;
  amg_request_init(&bad);
  bad.name = "bad";
  bad.script = kBadScript;
  amg_result* rb = nullptr;
  ASSERT_EQ(amg_generate(e, &bad, &rb), AMG_OK);

  ASSERT_EQ(amg_record_stop(e, &n), AMG_OK);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(amg_record_active(e), 0);

  // The trace re-executes byte-clean against a fresh in-process engine.
  const obs::TraceFile t = obs::readTraceFile(trace);
  EXPECT_EQ(t.header.tool, "capi_test");
  ASSERT_EQ(t.requests.size(), 2u);
  EXPECT_TRUE(t.requests[0].outcome.ok);
  EXPECT_FALSE(t.requests[1].outcome.ok);
  const gen::ReplayReport rep = gen::replayTrace(t, tech::bicmos1u(), {});
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.executed, 2u);
  EXPECT_EQ(rep.matched, 2u);

  amg_result_destroy(r);
  amg_result_destroy(rb);
  amg_engine_destroy(e);
  std::filesystem::remove(trace);
}

}  // namespace

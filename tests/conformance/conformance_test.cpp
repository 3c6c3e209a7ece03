// conformance_test.cpp — differential testing of the two execution
// paths. Every shipped example (examples/scripts/*.jn and
// examples/embedded/*.ccg) runs through the interpreter (the bytecode
// VM) AND the congenc-emitted C++ module, and the result sequences must
// be byte-identical. The paper's premise (Section VI) is that the
// interactive and compiled harnesses execute the same semantics; this
// suite keeps the two independent implementations from drifting
// silently.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "meta/annotations.hpp"
#include "runtime/collections.hpp"

// Build-time emitted modules, one per example (see CMakeLists.txt).
#include "conf_errors.hpp"
#include "conf_mapreduce.hpp"
#include "conf_nqueens.hpp"
#include "conf_quota.hpp"
#include "conf_retry.hpp"
#include "conf_timeout.hpp"
#include "conf_wordcount.hpp"
#include "conf_wordfreq.hpp"
#include "confcase_call_contract.hpp"
#include "confcase_escapes.hpp"
#include "confcase_subscript_stores.hpp"
#include "confcase_top_level_temps.hpp"
#include "confembed_logstats_embedded.hpp"
#include "confembed_wordcount_embedded.hpp"

namespace congen {
namespace {

const std::string kRoot = CONGEN_SOURCE_DIR;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Value emptyArgs() { return Value::list(ListImpl::create()); }

std::vector<std::string> drainImages(const GenPtr& gen) {
  std::vector<std::string> images;
  while (auto v = gen->nextValue()) images.push_back(v->toDisplayString());
  return images;
}

/// Drain main(args=[]) through the interpreter, capturing stdout.
std::string interpMainOutput(const std::string& scriptPath) {
  const std::string src = readFile(scriptPath);
  ::testing::internal::CaptureStdout();
  {
    interp::Interpreter interp;
    interp.load(src);
    auto gen = interp.call("main", {emptyArgs()});
    while (gen->nextValue()) {
    }
  }
  return ::testing::internal::GetCapturedStdout();
}

/// Drain main(args=[]) through an emitted module, capturing stdout.
/// Construction runs the script's top-level statements, matching load().
template <class Module>
std::string emittedMainOutput() {
  ::testing::internal::CaptureStdout();
  {
    Module mod;
    auto gen = mod.call("main", {emptyArgs()});
    while (gen->nextValue()) {
    }
  }
  return ::testing::internal::GetCapturedStdout();
}

template <class Module>
void expectConformance(const std::string& path, const std::string& name) {
  const std::string viaVm = interpMainOutput(path);
  const std::string viaEmitted = emittedMainOutput<Module>();
  EXPECT_FALSE(viaVm.empty()) << name << " produced no output";
  EXPECT_EQ(viaVm, viaEmitted) << name << ": interpreter and emitted paths disagree";
}

template <class Module>
void expectScriptConformance(const std::string& name) {
  expectConformance<Module>(kRoot + "/examples/scripts/" + name + ".jn", name);
}

TEST(ConformanceScripts, Errors) { expectScriptConformance<Conf_errors>("errors"); }
TEST(ConformanceScripts, Mapreduce) { expectScriptConformance<Conf_mapreduce>("mapreduce"); }
TEST(ConformanceScripts, Nqueens) { expectScriptConformance<Conf_nqueens>("nqueens"); }
TEST(ConformanceScripts, Quota) { expectScriptConformance<Conf_quota>("quota"); }
TEST(ConformanceScripts, Retry) { expectScriptConformance<Conf_retry>("retry"); }
TEST(ConformanceScripts, Timeout) { expectScriptConformance<Conf_timeout>("timeout"); }
TEST(ConformanceScripts, Wordcount) { expectScriptConformance<Conf_wordcount>("wordcount"); }
TEST(ConformanceScripts, Wordfreq) { expectScriptConformance<Conf_wordfreq>("wordfreq"); }

TEST(ConformanceCases, CallContract) {
  expectConformance<ConfCase_call_contract>(
      kRoot + "/tests/conformance/cases/call_contract.jn", "call_contract");
}

TEST(ConformanceCases, Escapes) {
  expectConformance<ConfCase_escapes>(kRoot + "/tests/conformance/cases/escapes.jn", "escapes");
}

TEST(ConformanceCases, SubscriptStores) {
  expectConformance<ConfCase_subscript_stores>(
      kRoot + "/tests/conformance/cases/subscript_stores.jn", "subscript_stores");
}

TEST(ConformanceCases, TopLevelTemporaries) {
  expectConformance<ConfCase_top_level_temps>(
      kRoot + "/tests/conformance/cases/top_level_temps.jn", "top_level_temps");
}

/// A host-side call of a call_contract.jn procedure: `call(name, args)`.
using HostCall = std::function<GenPtr(const std::string&, std::vector<Value>)>;

/// Run `check` once against the interpreter and once against the emitted
/// module: a host call means the same on both paths.
void onBothPaths(const std::function<void(const HostCall&)>& check) {
  {
    SCOPED_TRACE("interpreter");
    interp::Interpreter interp;
    interp.load(readFile(kRoot + "/tests/conformance/cases/call_contract.jn"));
    check([&interp](const std::string& name, std::vector<Value> args) {
      return interp.call(name, std::move(args));
    });
  }
  {
    SCOPED_TRACE("emitted");
    ConfCase_call_contract mod;
    check([&mod](const std::string& name, std::vector<Value> args) {
      return mod.call(name, std::move(args));
    });
  }
}

TEST(ConformanceCalls, DrivenAgainAfterFailureRunsTheCallAgain) {
  onBothPaths([](const HostCall& call) {
    const GenPtr gen = call("k", {Value::integer(5)});
    EXPECT_EQ(drainImages(gen), (std::vector<std::string>{"6", "16"}));
    EXPECT_EQ(drainImages(gen), (std::vector<std::string>{"6", "16"})) << "second drive";
  });
}

TEST(ConformanceCalls, RestartAfterTheFirstResultRunsTheCallAgain) {
  onBothPaths([](const HostCall& call) {
    const GenPtr gen = call("k", {Value::integer(5)});
    ASSERT_EQ(gen->nextValue()->toDisplayString(), "6");
    gen->restart();
    EXPECT_EQ(drainImages(gen), (std::vector<std::string>{"6", "16"}));
  });
}

TEST(ConformanceCalls, ReturnedCallDrivenAgainReturnsAgain) {
  onBothPaths([](const HostCall& call) {
    const GenPtr gen = call("f", {Value::integer(5)});
    EXPECT_EQ(drainImages(gen), (std::vector<std::string>{"5"}));
    EXPECT_EQ(drainImages(gen), (std::vector<std::string>{"5"})) << "second drive";
  });
}

/// The suite must cover every shipped example: a new .jn or .ccg file
/// fails here until it is added to the conformance corpus above.
TEST(ConformanceCorpus, CoversEveryShippedExample) {
  std::set<std::string> scripts, embedded;
  for (const auto& e : std::filesystem::directory_iterator(kRoot + "/examples/scripts")) {
    if (e.path().extension() == ".jn") scripts.insert(e.path().stem().string());
  }
  for (const auto& e : std::filesystem::directory_iterator(kRoot + "/examples/embedded")) {
    if (e.path().extension() == ".ccg") embedded.insert(e.path().stem().string());
  }
  EXPECT_EQ(scripts, (std::set<std::string>{"errors", "mapreduce", "nqueens", "quota", "retry",
                                            "timeout", "wordcount", "wordfreq"}))
      << "new script: add it to tests/conformance";
  EXPECT_EQ(embedded, (std::set<std::string>{"logstats_embedded", "wordcount_embedded"}))
      << "new embedded example: add it to tests/conformance";
}

std::string regionText(const std::string& src, const meta::Region& r) {
  return src.substr(r.innerBegin, r.innerEnd - r.innerBegin);
}

ListPtr wordcountLines() {
  auto lines = ListImpl::create();
  lines->put(Value::string("the quick brown fox jumps over the lazy dog"));
  lines->put(Value::string("concurrent generators embed goal directed evaluation"));
  lines->put(Value::string("pipes are multithreaded generator proxies"));
  return lines;
}

TEST(ConformanceEmbedded, WordcountPipelineStreamAgrees) {
  const std::string src = readFile(kRoot + "/examples/embedded/wordcount_embedded.ccg");
  const auto regions = meta::parseAnnotations(src);
  ASSERT_EQ(regions.size(), 2u);

  ConfEmbed_wordcount_embedded mod;
  mod.set("lines", Value::list(wordcountLines()));
  const auto viaEmitted = drainImages(mod.expr_0());

  // The definition region's generators must agree too (hashWords is the
  // map-reduce mapper of the shipped example). The interpreter side is
  // goal-directed invocation over every line; mirror that cross-product
  // explicitly on the emitted side.
  std::vector<std::string> emittedHash;
  for (auto lines = mod.call("readLines", {}); auto line = lines->nextValue();) {
    const auto per = drainImages(mod.call("hashWords", {*line}));
    emittedHash.insert(emittedHash.end(), per.begin(), per.end());
  }

  interp::Interpreter interp;
  interp.defineGlobal("lines", Value::list(wordcountLines()));
  interp.load(regionText(src, regions[0]));
  const auto viaInterp = drainImages(interp.eval(regionText(src, regions[1])));

  EXPECT_FALSE(viaInterp.empty());
  EXPECT_EQ(viaInterp, viaEmitted) << "pipe-expression streams disagree";
  EXPECT_EQ(drainImages(interp.eval("hashWords(readLines())")), emittedHash);
}

ListPtr logstatsLog() {
  auto log = ListImpl::create();
  for (const char* line : {"INFO service=auth ms=12", "WARN service=db ms=140",
                           "ERROR service=db ms=480", "INFO service=auth ms=9",
                           "ERROR service=auth ms=77", "INFO service=web ms=33"}) {
    log->put(Value::string(line));
  }
  return log;
}

TEST(ConformanceEmbedded, LogstatsStreamsAgree) {
  const std::string src = readFile(kRoot + "/examples/embedded/logstats_embedded.ccg");
  const auto regions = meta::parseAnnotations(src);
  ASSERT_EQ(regions.size(), 1u);

  ConfEmbed_logstats_embedded mod;
  mod.set("log", Value::list(logstatsLog()));
  const auto emittedEntries = drainImages(mod.call("entries", {}));
  std::vector<std::string> emittedSev;
  for (auto gen = mod.call("entries", {}); auto e = gen->nextValue();) {
    emittedSev.push_back(mod.call("severity", {*e})->nextValue()->toDisplayString());
  }

  interp::Interpreter interp;
  interp.defineGlobal("log", Value::list(logstatsLog()));
  interp.load(regionText(src, regions[0]));

  // Parsed-entry streams (records, scanning) must agree element-wise,
  // and so must the derived severity stream.
  const auto interpEntries = drainImages(interp.eval("entries()"));
  EXPECT_FALSE(interpEntries.empty());
  EXPECT_EQ(interpEntries, emittedEntries);

  std::vector<std::string> interpSev;
  for (auto gen = interp.eval("entries()"); auto e = gen->nextValue();) {
    interpSev.push_back(interp.call("severity", {*e})->nextValue()->toDisplayString());
  }
  EXPECT_EQ(interpSev, emittedSev);

  for (const char* svc : {"auth", "db", "web", "absent"}) {
    auto viaInterp = interp.call("worstLatency", {Value::string(svc)})->nextValue();
    auto viaEmitted = mod.call("worstLatency", {Value::string(svc)})->nextValue();
    ASSERT_EQ(viaInterp.has_value(), viaEmitted.has_value()) << svc;
    if (viaInterp) EXPECT_EQ(viaInterp->toDisplayString(), viaEmitted->toDisplayString()) << svc;
  }
}

}  // namespace
}  // namespace congen

#include "kernel/trace.hpp"

#include <cxxabi.h>

#include <memory>
#include <mutex>

namespace congen::trace {

namespace {

std::mutex g_hookLock;
Hook g_hook;  // guarded by g_hookLock for install/remove; events copy it

thread_local int t_depth = 0;

std::atomic<std::uint64_t> g_resumes{0};
std::atomic<std::uint64_t> g_produces{0};
std::atomic<std::uint64_t> g_failures{0};

std::string demangle(const char* name) {
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> demangled(
      abi::__cxa_demangle(name, nullptr, nullptr, &status), std::free);
  return status == 0 && demangled ? std::string(demangled.get()) : std::string(name);
}

void dispatch(const Event& event) {
  Hook hook;
  {
    std::lock_guard lock(g_hookLock);
    hook = g_hook;
  }
  if (hook) hook(event);
}

}  // namespace

std::atomic<bool> g_enabled{false};

void install(Hook hook) {
  std::lock_guard lock(g_hookLock);
  g_hook = std::move(hook);
  g_enabled.store(true, std::memory_order_relaxed);
}

void remove() {
  std::lock_guard lock(g_hookLock);
  g_enabled.store(false, std::memory_order_relaxed);
  g_hook = nullptr;
}

int enter(const Gen& node) {
  const int depth = t_depth++;
  dispatch(Event{EventKind::Resume, &node, demangle(typeid(node).name()), depth, nullptr});
  return depth;
}

void produced(const Gen& node, const Value& v, int depth) {
  --t_depth;
  dispatch(Event{EventKind::Produce, &node, demangle(typeid(node).name()), depth, &v});
}

void failed(const Gen& node, int depth) {
  --t_depth;
  dispatch(Event{EventKind::Fail, &node, demangle(typeid(node).name()), depth, nullptr});
}

void installCounting() {
  g_resumes = 0;
  g_produces = 0;
  g_failures = 0;
  install([](const Event& e) {
    switch (e.kind) {
      case EventKind::Resume: g_resumes.fetch_add(1, std::memory_order_relaxed); break;
      case EventKind::Produce: g_produces.fetch_add(1, std::memory_order_relaxed); break;
      case EventKind::Fail: g_failures.fetch_add(1, std::memory_order_relaxed); break;
    }
  });
}

Counters counters() {
  return Counters{g_resumes.load(), g_produces.load(), g_failures.load()};
}

std::string format(const Event& event) {
  std::string out;
  for (int i = 0; i < event.depth; ++i) out += "| ";
  // Strip the namespace for readability.
  std::string type = event.nodeType;
  if (const auto pos = type.rfind("::"); pos != std::string::npos) type = type.substr(pos + 2);
  out += type;
  switch (event.kind) {
    case EventKind::Resume: out += " ..."; break;
    case EventKind::Produce: out += " -> " + (event.value ? event.value->image() : "?"); break;
    case EventKind::Fail: out += " =| fail"; break;
  }
  return out;
}

}  // namespace congen::trace

//===- perfbench/Tracer.cpp - In-memory spans for the traced run ----------===//

#include "Tracer.h"

#include <cstdio>

using namespace perfbench;

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.DurNs;
  std::map<std::string, Layer> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Layer &L = Out[S.Name];
    ++L.Spans;
    L.Items += S.Items;
    L.Sec += S.DurNs * 1e-9;
    L.SelfSec += (S.DurNs > ChildNs[I] ? S.DurNs - ChildNs[I] : 0) * 1e-9;
  }
  return Out;
}

Tracer::Layer Tracer::layer(const std::string &Name) const {
  std::map<std::string, Layer> All = layers();
  auto It = All.find(Name);
  return It == All.end() ? Layer() : It->second;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"tx\":%lld,\"items\":%llu}}\n",
                 I ? "," : "", S.Name, S.Phase, S.StartNs / 1e3,
                 S.DurNs / 1e3, I, S.Parent, static_cast<long long>(S.Tx),
                 static_cast<unsigned long long>(S.Items));
  }
  std::fputs("],\"layers\":{\n", F);
  bool First = true;
  for (const auto &[Name, L] : layers()) {
    std::fprintf(F,
                 "%s\"%s\":{\"spans\":%llu,\"items\":%llu,\"sec\":%.9f,"
                 "\"self_sec\":%.9f}\n",
                 First ? "" : ",", Name.c_str(),
                 static_cast<unsigned long long>(L.Spans),
                 static_cast<unsigned long long>(L.Items), L.Sec, L.SelfSec);
    First = false;
  }
  std::fputs("}}\n", F);
  return std::fclose(F) == 0;
}

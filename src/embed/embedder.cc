#include "embed/embedder.h"

#include <atomic>
#include <map>

#include "obs/trace.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "util/thread_pool.h"

namespace querc::embed {

namespace {

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Embedder::Embedder() : instance_id_(NextInstanceId()) {}
Embedder::Embedder(const Embedder&) : instance_id_(NextInstanceId()) {}
Embedder::Embedder(Embedder&&) noexcept : instance_id_(NextInstanceId()) {}

std::vector<nn::Vec> Embedder::EmbedBatch(
    const std::vector<std::vector<std::string>>& docs, util::ThreadPool* pool,
    util::Lane lane) const {
  // Embed is a pure function of the tokens, so each distinct token list is
  // embedded once and its vector copied to the duplicates. Identity is
  // exact equality of the lists, never a hash of them.
  using Doc = std::vector<std::string>;
  auto less = [](const Doc* a, const Doc* b) { return *a < *b; };
  std::map<const Doc*, size_t, decltype(less)> slot_of(less);
  std::vector<const Doc*> distinct;
  std::vector<size_t> slot(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto [it, inserted] = slot_of.emplace(&docs[i], distinct.size());
    if (inserted) distinct.push_back(&docs[i]);
    slot[i] = it->second;
  }
  std::vector<nn::Vec> unique(distinct.size());
  if (pool != nullptr && distinct.size() > 1) {
    pool->ParallelFor(lane, distinct.size(),
                      [&](size_t u) { unique[u] = Embed(*distinct[u]); });
  } else {
    for (size_t u = 0; u < distinct.size(); ++u) {
      unique[u] = Embed(*distinct[u]);
    }
  }
  std::vector<nn::Vec> vectors;
  vectors.reserve(docs.size());
  for (size_t s : slot) vectors.push_back(unique[s]);
  return vectors;
}

std::vector<std::string> TokenizeForEmbedding(std::string_view text,
                                              sql::Dialect dialect) {
  sql::LexOptions options;
  options.dialect = dialect;
  sql::TokenList tokens;
  {
    static obs::Histogram& hist = obs::StageHistogram("lex");
    obs::Span span(&hist, "lex");
    tokens = sql::LexLenient(text, options);
  }
  static obs::Histogram& hist = obs::StageHistogram("normalize");
  obs::Span span(&hist, "normalize");
  return sql::Normalize(tokens);
}

std::vector<std::vector<std::string>> TokenizeWorkload(
    const workload::Workload& workload) {
  std::vector<std::vector<std::string>> docs;
  docs.reserve(workload.size());
  for (const auto& q : workload) {
    docs.push_back(TokenizeForEmbedding(q.text, q.dialect));
  }
  return docs;
}

util::Status TrainOnWorkload(Embedder& embedder,
                             const workload::Workload& corpus) {
  return embedder.Train(TokenizeWorkload(corpus));
}

std::vector<nn::Vec> EmbedWorkload(const Embedder& embedder,
                                   const workload::Workload& workload,
                                   util::ThreadPool* pool, util::Lane lane) {
  return embedder.EmbedBatch(TokenizeWorkload(workload), pool, lane);
}

}  // namespace querc::embed

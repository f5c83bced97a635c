// Serve workloads: the closed-loop socket load generator, the post-window
// correctness mirror, and the traced in-process layer replay.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <variant>

#include "common.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "spambayes/interner.h"
#include "spambayes/score_engine.h"
#include "trace.h"
#include "util/error.h"
#include "workload.h"

namespace perfbench {
namespace {

using sbx::serve::ClassifyBatchRequest;
using sbx::serve::ClassifyBatchResponse;
using sbx::serve::ErrorResponse;
using sbx::serve::Request;
using sbx::serve::Response;
using sbx::serve::StatsResponse;
using sbx::serve::TrainRequest;
using sbx::serve::TrainResponse;

/// Replies of one connection, parallel to its request stream (empty when
/// the call threw after exhausting its retries).
using Replies = std::vector<std::vector<std::optional<Response>>>;

sbx::serve::ClientOptions client_options(std::uint64_t jitter_seed) {
  sbx::serve::ClientOptions o;
  o.op_timeout_ms = 10'000;
  o.max_attempts = 3;
  o.jitter_seed = jitter_seed;
  return o;
}

struct DriveResult {
  std::vector<double> latency_ms;        // every answered request
  std::vector<double> train_latency_ms;  // answered train requests
  std::uint64_t classify_requests = 0;   // answered without error
  std::uint64_t classified_messages = 0;
  std::uint64_t train_requests = 0;
  std::uint64_t failed = 0;  // exhausted retries or ErrorResponse
  std::uint64_t retries = 0;
  double window_s = 0;
  double steal_share = 0;  // stolen share of busy CPU time, the window
  double daemon_cpu_s = 0;  // CPU time of all daemon threads, the window
};

/// The aggregate "cpu" line of /proc/stat, in clock ticks: user, nice,
/// system, idle, iowait, irq, softirq, steal.
std::vector<std::uint64_t> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::vector<std::uint64_t> ticks;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) ticks.push_back(v);
  return ticks;
}

/// Share of the busy CPU time between two samples (every tick but idle and
/// iowait) that the hypervisor stole: how much of the time the VM wanted to
/// run it did not.
double steal_share(const std::vector<std::uint64_t>& before,
                   const std::vector<std::uint64_t>& after) {
  if (before.size() < 8 || after.size() != before.size()) return 0;
  std::uint64_t busy = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i != 3 && i != 4) busy += after[i] - before[i];
  }
  return busy ? static_cast<double>(after[7] - before[7]) /
                    static_cast<double>(busy)
              : 0;
}

/// CPU seconds used so far by every thread of a live process, summed
/// from the per-thread schedstat run times (ns resolution; host steal is
/// not counted); 0 if unreadable.
double process_cpu_s(long pid) {
  std::error_code ec;
  std::uint64_t ns = 0;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

/// Three closed loops, one per connection and thread: each sends its next
/// request only after the previous reply. The window runs from the first
/// send to the last reply; connecting (and one Stats round-trip per
/// connection to warm the socket) happens before it.
DriveResult drive(const std::string& endpoint, const Streams& streams,
                  long daemon_pid, Tracer* tracer, Replies& replies) {
  const std::size_t n = streams.size();
  const std::uint32_t call_name =
      tracer ? tracer->name_id("serve.client.call") : 0;
  replies.assign(n, {});
  std::vector<DriveResult> per(n);
  std::vector<std::uint64_t> first_send(n, 0), last_reply(n, 0);
  // Connect, and warm each socket with one Stats round-trip, before the
  // window. The connections stay open until the daemon's CPU time has been
  // read: its per-connection threads take their CPU accounting with them
  // when they exit.
  std::vector<std::unique_ptr<sbx::serve::Client>> clients;
  for (std::size_t c = 0; c < n; ++c) {
    clients.push_back(std::make_unique<sbx::serve::Client>(
        endpoint, client_options(0x5EED0000 + c)));
    clients.back()->call(Request(sbx::serve::StatsRequest{}));
  }
  std::latch ready(static_cast<std::ptrdiff_t>(n) + 1);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      sbx::serve::Client& client = *clients[c];
      ready.count_down();
      go.wait();
      DriveResult& out = per[c];
      auto& rep = replies[c];
      rep.resize(streams[c].size());
      out.latency_ms.reserve(streams[c].size());
      for (std::size_t r = 0; r < streams[c].size(); ++r) {
        const Request& request = streams[c][r];
        const std::uint64_t t0 = Tracer::now_ns();
        if (r == 0) first_send[c] = t0;
        try {
          const ScopedSpan span(tracer, call_name, request_id_of(c, r));
          rep[r] = client.call(request);
        } catch (const sbx::Error&) {
          ++out.failed;
          continue;
        }
        const std::uint64_t t1 = Tracer::now_ns();
        last_reply[c] = t1;
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        out.latency_ms.push_back(ms);
        if (std::holds_alternative<ErrorResponse>(*rep[r])) {
          ++out.failed;
        } else if (const auto* b =
                       std::get_if<ClassifyBatchRequest>(&request)) {
          ++out.classify_requests;
          out.classified_messages += b->messages.size();
        } else {
          ++out.train_requests;
          out.train_latency_ms.push_back(ms);
        }
      }
      out.retries = client.retries();
    });
  }
  ready.arrive_and_wait();
  const std::vector<std::uint64_t> ticks_before = cpu_ticks();
  const double cpu_before = daemon_pid > 0 ? process_cpu_s(daemon_pid) : 0;
  go.count_down();
  for (std::thread& t : threads) t.join();
  const double cpu_after = daemon_pid > 0 ? process_cpu_s(daemon_pid) : 0;
  const std::vector<std::uint64_t> ticks_after = cpu_ticks();

  DriveResult total;
  std::uint64_t start = 0, stop = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const DriveResult& p = per[c];
    total.latency_ms.insert(total.latency_ms.end(), p.latency_ms.begin(),
                            p.latency_ms.end());
    total.train_latency_ms.insert(total.train_latency_ms.end(),
                                  p.train_latency_ms.begin(),
                                  p.train_latency_ms.end());
    total.classify_requests += p.classify_requests;
    total.classified_messages += p.classified_messages;
    total.train_requests += p.train_requests;
    total.failed += p.failed;
    total.retries += p.retries;
    if (first_send[c] != 0 && (start == 0 || first_send[c] < start)) {
      start = first_send[c];
    }
    stop = std::max(stop, last_reply[c]);
  }
  total.window_s = stop > start ? static_cast<double>(stop - start) / 1e9 : 0;
  total.steal_share = steal_share(ticks_before, ticks_after);
  total.daemon_cpu_s = cpu_after - cpu_before;
  return total;
}

Response call_once(const std::string& endpoint, const Request& request) {
  sbx::serve::Client client(endpoint, client_options(0xC0FFEE));
  return client.call(request);
}

/// Peak resident set (VmHWM) of a live process, in MB; 0 if unreadable.
double peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// FNV-1a over everything the mirror compares (score bits, verdicts,
/// train counts; generations are process-local and left out), so windows
/// replayed on fresh daemons can be checked against each other.
std::string reply_digest(const Replies& replies) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  for (const auto& conn : replies) {
    for (const auto& reply : conn) {
      const std::uint8_t kind =
          reply ? static_cast<std::uint8_t>(reply->index()) : 0xFF;
      mix(&kind, 1);
      if (!reply) continue;
      if (const auto* c = std::get_if<ClassifyBatchResponse>(&*reply)) {
        for (const auto& r : c->results) {
          mix(&r.score, sizeof r.score);
          mix(&r.verdict, 1);
        }
      } else if (const auto* t = std::get_if<TrainResponse>(&*reply)) {
        mix(&t->overlay_spam, sizeof t->overlay_spam);
        mix(&t->overlay_ham, sizeof t->overlay_ham);
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct MirrorResult {
  std::uint64_t mismatched_requests = 0;
  std::uint64_t mismatched_scores = 0;
  std::uint64_t compared_requests = 0;
};

/// Replays every connection's stream through an in-process frontend built
/// from the daemon's base config and compares score bits, verdicts and
/// train counts with what the daemon answered. Connections own disjoint
/// users, so they replay on parallel threads without changing any result.
/// `flip` corrupts the mirror's first score (benchmark self-test).
MirrorResult mirror_check(const Streams& streams, const Replies& replies,
                          const sbx::serve::FrontendConfig& fc, bool flip) {
  sbx::serve::ServeFrontend mirror(
      sbx::serve::build_base_filter(sbx::serve::BaseModelConfig{}), fc);
  std::vector<MirrorResult> per(streams.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      MirrorResult& out = per[c];
      for (std::size_t r = 0; r < streams[c].size(); ++r) {
        Response local = mirror.dispatch(streams[c][r]);
        if (!replies[c][r]) continue;  // failed call: already counted
        ++out.compared_requests;
        const Response& remote = *replies[c][r];
        bool bad = remote.index() != local.index();
        const auto* rc = std::get_if<ClassifyBatchResponse>(&remote);
        auto* lc = std::get_if<ClassifyBatchResponse>(&local);
        if (rc && lc) {
          if (flip && c == 0 && r == 0 && !lc->results.empty()) {
            lc->results[0].score =
                std::nextafter(lc->results[0].score, 2.0);
          }
          bad = rc->results.size() != lc->results.size();
          for (std::size_t i = 0; !bad && i < rc->results.size(); ++i) {
            if (!same_bits(rc->results[i].score, lc->results[i].score) ||
                rc->results[i].verdict != lc->results[i].verdict) {
              ++out.mismatched_scores;
              bad = true;
            }
          }
        }
        const auto* rt = std::get_if<TrainResponse>(&remote);
        const auto* lt = std::get_if<TrainResponse>(&local);
        if (rt && lt) {
          bad = rt->overlay_spam != lt->overlay_spam ||
                rt->overlay_ham != lt->overlay_ham;
        }
        if (bad) ++out.mismatched_requests;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MirrorResult total;
  for (const MirrorResult& p : per) {
    total.mismatched_requests += p.mismatched_requests;
    total.mismatched_scores += p.mismatched_scores;
    total.compared_requests += p.compared_requests;
  }
  return total;
}

/// The traced in-process replay. Every request runs twice: once through
/// the real ServeFrontend entry point (classify_batch / train), and once
/// as the sequence of public layer calls those entry points make, each
/// inside its own span. The two orders alternate per request so the cost
/// of interning a message's unseen tokens lands on each side equally.
class LayerReplay {
 public:
  LayerReplay(Tracer& tracer, const sbx::serve::FrontendConfig& fc,
              const std::string& dir, bool durable)
      : tracer_(tracer),
        frontend_(sbx::serve::build_base_filter(sbx::serve::BaseModelConfig{}),
                  fc, durable ? make_durability(dir + "/frontend", fc)
                              : nullptr),
        wal_(durable ? make_durability(dir + "/layers", fc) : nullptr) {
    std::vector<std::size_t> owned(fc.shard_count, 0);
    for (std::uint64_t u = 0; u < fc.user_count; ++u) {
      const auto at = frontend_.route(u);
      owned[at.shard] = std::max<std::size_t>(owned[at.shard], at.local + 1);
    }
    for (std::size_t s = 0; s < fc.shard_count; ++s) {
      shards_.push_back(
          std::make_unique<sbx::serve::ModelShard>(std::max<std::size_t>(
              owned[s], 1)));
      shards_.back()->configure_dedup(fc.dedup_window);
    }
    for (const char* name :
         {"serve.frontend.classify", "serve.frontend.train",
          "serve.layers.classify", "serve.layers.train", "email.parse",
          "spambayes.tokenize", "serve.shard.overlay", "spambayes.score_base",
          "spambayes.score_overlay", "serve.shard.apply", "serve.wal.append",
          "serve.wal.commit_wait", "serve.protocol.encode",
          "serve.protocol.decode"}) {
      ids_.push_back(tracer_.name_id(name));
    }
  }

  /// Replays request r of connection c; returns false when the layer
  /// path and the frontend disagree on any score bit or train count.
  bool replay(std::size_t c, std::size_t r, const Request& request) {
    const std::uint64_t rid = request_id_of(c, r);
    const bool frontend_first = (c + r) % 2 == 1;
    Response real, layered;
    if (frontend_first) real = through_frontend(rid, request);
    layered = through_layers(rid, request);
    if (!frontend_first) real = through_frontend(rid, request);
    protocol(rid, request, real);
    return agree(real, layered);
  }

  // Work counts for the per-unit means.
  std::uint64_t frame_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t base_messages = 0;     // scored by the warm base engine
  std::uint64_t overlay_messages = 0;  // scored against base + overlay

 private:
  enum Name : std::size_t {
    kFrontClassify, kFrontTrain, kLayersClassify, kLayersTrain, kParse,
    kTokenize, kOverlay, kScoreBase, kScoreOverlay, kShardApply, kWalAppend,
    kCommitWait, kEncode, kDecode
  };

  static std::unique_ptr<sbx::serve::Durability> make_durability(
      const std::string& dir, const sbx::serve::FrontendConfig& fc) {
    sbx::serve::DurabilityConfig dc;
    dc.data_dir = dir;
    dc.fsync = sbx::serve::FsyncMode::kBatch;
    return std::make_unique<sbx::serve::Durability>(dc, fc.shard_count);
  }

  ScopedSpan span(Name n, std::uint64_t rid) {
    return ScopedSpan(&tracer_, ids_[n], rid);
  }

  Response through_frontend(std::uint64_t rid, const Request& request) {
    if (const auto* b = std::get_if<ClassifyBatchRequest>(&request)) {
      const ScopedSpan s = span(kFrontClassify, rid);
      return frontend_.classify_batch(*b);
    }
    const ScopedSpan s = span(kFrontTrain, rid);
    return frontend_.train(std::get<TrainRequest>(request));
  }

  sbx::spambayes::TokenIdSet token_ids(std::uint64_t rid,
                                       const std::string& raw) {
    const sbx::spambayes::Filter& base = frontend_.base();
    sbx::email::Message message;
    {
      const ScopedSpan s = span(kParse, rid);
      message = sbx::email::parse_message(raw);
    }
    const ScopedSpan s = span(kTokenize, rid);
    return base.message_token_ids(message);
  }

  Response through_layers(std::uint64_t rid, const Request& request) {
    const sbx::spambayes::Filter& base = frontend_.base();
    if (const auto* b = std::get_if<ClassifyBatchRequest>(&request)) {
      const ScopedSpan outer = span(kLayersClassify, rid);
      const auto at = frontend_.route(b->user_id);
      std::vector<sbx::spambayes::TokenIdSet> ids;
      ids.reserve(b->messages.size());
      for (const std::string& raw : b->messages) {
        ids.push_back(token_ids(rid, raw));
      }
      sbx::serve::OverlaySnapshot overlay;
      {
        const ScopedSpan s = span(kOverlay, rid);
        overlay = shards_[at.shard]->overlay(at.local);
      }
      ClassifyBatchResponse out;
      out.results.resize(ids.size());
      if (!overlay) {
        base_messages += ids.size();
        const ScopedSpan s = span(kScoreBase, rid);
        sbx::spambayes::ScoreEngine::for_current_thread(
            base.options().classifier)
            .score_ids_batch(
                base.database(),
                std::span<const sbx::spambayes::TokenIdList>(ids),
                [&](std::size_t i, const sbx::spambayes::BatchScore& sc) {
                  out.results[i] = {sc.score,
                                    sbx::serve::verdict_to_byte(sc.verdict)};
                });
      } else {
        overlay_messages += ids.size();
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const ScopedSpan s = span(kScoreOverlay, rid);
          const auto sc = base.classifier().score_ids(base.database(),
                                                      *overlay, ids[i]);
          out.results[i] = {sc.score,
                            sbx::serve::verdict_to_byte(sc.verdict)};
        }
      }
      return out;
    }
    const auto& t = std::get<TrainRequest>(request);
    const ScopedSpan outer = span(kLayersTrain, rid);
    const auto at = frontend_.route(t.user_id);
    const sbx::spambayes::TokenIdSet ids = token_ids(rid, t.message);
    sbx::serve::MutationRequest m;
    m.op = sbx::serve::kWalOpTrain;
    m.user_id = t.user_id;
    m.request_id = t.request_id;
    m.as_spam = t.as_spam;
    m.copies = t.copies;
    m.message = &t.message;
    sbx::serve::MutationResult result;
    {
      const ScopedSpan s = span(kShardApply, rid);
      result = shards_[at.shard]->apply_mutation(at.local, m, ids);
    }
    if (wal_ != nullptr) {
      sbx::serve::WalRecord record;
      record.op = m.op;
      record.seqno = wal_->draw_seqno();
      record.user_id = t.user_id;
      record.request_id = t.request_id;
      record.as_spam = t.as_spam;
      record.copies = t.copies;
      record.message = t.message;
      std::uint64_t ticket = 0;
      {
        const ScopedSpan s = span(kWalAppend, rid);
        wal_->wal(at.shard).append(record);
        ticket = wal_->note_append();
      }
      const ScopedSpan s = span(kCommitWait, rid);
      wal_->await_durable(ticket);
    }
    return TrainResponse{result.generation, result.spam, result.ham};
  }

  /// Frame codec cost for the request and its reply, both directions.
  void protocol(std::uint64_t rid, const Request& request,
                const Response& reply) {
    std::vector<std::uint8_t> req_frame, rep_frame;
    {
      const ScopedSpan s = span(kEncode, rid);
      req_frame = sbx::serve::encode_frame(request);
    }
    {
      const ScopedSpan s = span(kEncode, rid);
      rep_frame = sbx::serve::encode_frame(reply);
    }
    {
      const ScopedSpan s = span(kDecode, rid);
      (void)sbx::serve::decode_request(
          std::span<const std::uint8_t>(req_frame).subspan(4));
    }
    {
      const ScopedSpan s = span(kDecode, rid);
      (void)sbx::serve::decode_response(
          std::span<const std::uint8_t>(rep_frame).subspan(4));
    }
    frame_bytes += req_frame.size() + rep_frame.size();
    frames += 2;
  }

  static bool agree(const Response& a, const Response& b) {
    const auto* ca = std::get_if<ClassifyBatchResponse>(&a);
    const auto* cb = std::get_if<ClassifyBatchResponse>(&b);
    if (ca && cb) {
      if (ca->results.size() != cb->results.size()) return false;
      for (std::size_t i = 0; i < ca->results.size(); ++i) {
        if (!same_bits(ca->results[i].score, cb->results[i].score) ||
            ca->results[i].verdict != cb->results[i].verdict) {
          return false;
        }
      }
      return true;
    }
    const auto* ta = std::get_if<TrainResponse>(&a);
    const auto* tb = std::get_if<TrainResponse>(&b);
    return ta && tb && ta->overlay_spam == tb->overlay_spam &&
           ta->overlay_ham == tb->overlay_ham;
  }

  Tracer& tracer_;
  sbx::serve::ServeFrontend frontend_;
  std::unique_ptr<sbx::serve::Durability> wal_;
  std::vector<std::unique_ptr<sbx::serve::ModelShard>> shards_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace

int cmd_gen(Args& args) {
  ServeShape shape;
  shape.train_every = args.num("train-every", 0);
  shape.requests_per_connection = args.num("requests", 0);
  const std::uint64_t seed = args.num("seed", 1);
  const std::string out = args.str("out");
  args.finish();
  save_streams(out, generate_streams(shape, seed));
  return 0;
}

int cmd_shutdown(Args& args) {
  const std::string endpoint = args.str("endpoint");
  args.finish();
  const Response r =
      call_once(endpoint, Request(sbx::serve::ShutdownRequest{}));
  return std::holds_alternative<sbx::serve::ShutdownResponse>(r) ? 0 : 1;
}

/// Runs the traced in-process replay of every stream and turns its spans
/// (plus the client-side call spans of the traced socket pass) into the
/// per-layer metrics. Returns the metrics object; counts layer/frontend
/// disagreements into `disagreements`.
static std::string layer_metrics(Tracer& tracer, const Streams& streams,
                          const DriveResult& d, const StatsResponse& stats,
                          const sbx::serve::FrontendConfig& fc,
                          const std::string& replay_dir, bool durable,
                          std::uint64_t& disagreements) {
  LayerReplay replay(tracer, fc, replay_dir, durable);
  // Round-robin over connections keeps each user's requests in order.
  std::size_t longest = 0;
  for (const auto& s : streams) longest = std::max(longest, s.size());
  for (std::size_t r = 0; r < longest; ++r) {
    for (std::size_t c = 0; c < streams.size(); ++c) {
      if (r < streams[c].size() && !replay.replay(c, r, streams[c][r])) {
        ++disagreements;
      }
    }
  }

  // Transport: client call time minus in-process dispatch time, matched
  // by request id.
  const std::uint32_t call = tracer.name_id("serve.client.call");
  const std::uint32_t front_c = tracer.name_id("serve.frontend.classify");
  const std::uint32_t front_t = tracer.name_id("serve.frontend.train");
  std::map<std::uint64_t, double> call_us, inproc_us;
  for (const Span& s : tracer.collect()) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.name == call) call_us[s.request] = us;
    if (s.name == front_c || s.name == front_t) inproc_us[s.request] = us;
  }
  double transport = 0;
  std::size_t matched = 0;
  for (const auto& [rid, us] : call_us) {
    const auto it = inproc_us.find(rid);
    if (it == inproc_us.end()) continue;
    transport += us - it->second;
    ++matched;
  }

  const auto totals = tracer.totals();
  auto spans = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto self_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_us;
  };
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double msgs = static_cast<double>(d.classified_messages);
  const double classify_reqs = static_cast<double>(d.classify_requests);
  const double trains = static_cast<double>(d.train_requests);
  const double parse_us = per(self_us("email.parse"), spans("email.parse"));
  const double tokenize_us =
      per(self_us("spambayes.tokenize"), spans("spambayes.tokenize"));
  const double classify_us = per(
      totals.count("serve.frontend.classify")
          ? totals.at("serve.frontend.classify").total_us
          : 0.0,
      classify_reqs);
  // The stage budget: parse + tokenize + score per classify request,
  // against the measured frontend call for the same requests.
  const double budget_us =
      per((parse_us + tokenize_us) * msgs + self_us("spambayes.score_base") +
              self_us("spambayes.score_overlay") +
              self_us("serve.shard.overlay"),
          classify_reqs);
  const double frames = static_cast<double>(replay.frames);
  JsonLine layers;
  layers.num("email.parse_us", parse_us)
      .num("spambayes.tokenize_us", tokenize_us)
      .count("spambayes.interner_tokens",
             sbx::spambayes::global_interner().size())
      .num("spambayes.score_base_us",
           per(self_us("spambayes.score_base"),
               static_cast<double>(replay.base_messages)))
      .num("spambayes.score_overlay_us",
           per(self_us("spambayes.score_overlay"),
               static_cast<double>(replay.overlay_messages)))
      .num("serve.protocol.encode_us",
           per(self_us("serve.protocol.encode"), frames))
      .num("serve.protocol.decode_us",
           per(self_us("serve.protocol.decode"), frames))
      .num("serve.protocol.frame_bytes",
           per(static_cast<double>(replay.frame_bytes), frames))
      .num("serve.frontend.classify_us", classify_us)
      .num("serve.frontend.train_us",
           per(self_us("serve.frontend.train"), trains))
      .num("serve.frontend.budget_share", per(budget_us, classify_us))
      .num("serve.shard.apply_us", per(self_us("serve.shard.apply"), trains))
      .num("serve.wal.append_us", per(self_us("serve.wal.append"), trains))
      .num("serve.wal.commit_wait_us",
           per(self_us("serve.wal.commit_wait"), trains))
      .num("serve.wal.records_per_window",
           per(static_cast<double>(stats.wal_records),
               static_cast<double>(stats.group_commit_windows)))
      .num("serve.transport_us", per(transport, static_cast<double>(matched)))
      .count("serve.client.retries", d.retries)
      .count("serve.errors", stats.errors + stats.shed_connections)
      .count("trace.spans", tracer.collect().size());
  return layers.text();
}

int cmd_serve(Args& args) {
  const std::string endpoint = args.str("endpoint");
  const Streams streams = load_streams(args.str("inputs"));
  sbx::serve::FrontendConfig fc;
  fc.user_count = args.num("users", fc.user_count);
  fc.shard_count = args.num("shards", fc.shard_count);
  const long daemon_pid = static_cast<long>(args.num("daemon-pid", 0));
  const std::string trace_csv = args.opt("trace");
  const std::string replay_dir = args.opt("replay-dir");
  const bool durable = args.flag("durable");
  const bool flip = args.flag("flip-mirror");
  const bool mirror = !args.flag("no-mirror");
  args.finish();

  std::unique_ptr<Tracer> tracer;
  if (!trace_csv.empty()) tracer = std::make_unique<Tracer>();

  Replies replies;
  const DriveResult d =
      drive(endpoint, streams, daemon_pid, tracer.get(), replies);

  // Read after the window: the daemon's own counters, then its peak RSS,
  // then stop it with a request.
  const Response sr =
      call_once(endpoint, Request(sbx::serve::StatsRequest{}));
  const auto* stats = std::get_if<StatsResponse>(&sr);
  if (stats == nullptr) throw std::runtime_error("stats request failed");
  const double rss_mb = daemon_pid > 0 ? peak_rss_mb(daemon_pid) : 0;
  call_once(endpoint, Request(sbx::serve::ShutdownRequest{}));

  std::uint64_t attempted = 0;
  for (const auto& s : streams) attempted += s.size();

  // Client and daemon must count the same work. A client retry may make
  // the daemon see a request twice, so exact equality is required only
  // when no retry happened.
  const bool exact = d.retries == 0;
  auto agrees = [&](std::uint64_t server, std::uint64_t client) {
    return exact ? server == client
                 : server >= client && server <= client + d.retries;
  };
  const bool stats_agree =
      agrees(stats->classify_requests, d.classify_requests) &&
      agrees(stats->train_requests, d.train_requests) &&
      stats->classified_messages >= d.classified_messages &&
      (!exact || stats->classified_messages == d.classified_messages) &&
      stats->errors == 0 && stats->shed_connections == 0 &&
      (!exact || stats->deduped_mutations == 0) &&
      (!durable || stats->wal_records >= d.train_requests);

  // The traced replay runs before the mirror, so it (not the mirror)
  // pays for interning the messages' unseen tokens, as the daemon did.
  std::uint64_t disagreements = 0;
  std::string layers;
  if (tracer) {
    layers = layer_metrics(*tracer, streams, d, *stats, fc, replay_dir,
                           durable, disagreements);
    tracer->write_csv(trace_csv);
  }
  const MirrorResult m =
      mirror ? mirror_check(streams, replies, fc, flip) : MirrorResult{};

  JsonLine out;
  out.count("attempted", attempted)
      .count("failed", d.failed + m.mismatched_requests + disagreements +
                           (stats_agree ? 0 : 1))
      .count("client_classify_requests", d.classify_requests)
      .count("client_classified_messages", d.classified_messages)
      .count("client_train_requests", d.train_requests)
      .count("client_failed", d.failed)
      .count("retries", d.retries)
      .num("window_s", d.window_s)
      .num("window_steal_share", d.steal_share)
      .num("daemon_cpu_s", d.daemon_cpu_s)
      .num("msgs_per_s", d.window_s > 0
                             ? static_cast<double>(d.classified_messages) /
                                   d.window_s
                             : 0)
      .num("latency_p50_ms", quantile(d.latency_ms, 0.5))
      .num("latency_p99_ms", quantile(d.latency_ms, 0.99))
      .count("latency_samples", d.latency_ms.size())
      .num("train_latency_p50_ms", quantile(d.train_latency_ms, 0.5))
      .count("train_latency_samples", d.train_latency_ms.size())
      .num("peak_rss_mb", rss_mb)
      .count("stats_classify_requests", stats->classify_requests)
      .count("stats_classified_messages", stats->classified_messages)
      .count("stats_train_requests", stats->train_requests)
      .count("stats_errors", stats->errors)
      .count("stats_shed_connections", stats->shed_connections)
      .count("stats_deduped_mutations", stats->deduped_mutations)
      .count("stats_wal_records", stats->wal_records)
      .count("stats_group_commit_windows", stats->group_commit_windows)
      .boolean("stats_agree", stats_agree)
      .str("reply_digest", reply_digest(replies))
      .count("mirror_compared_requests", m.compared_requests)
      .count("mirror_mismatched_requests", m.mismatched_requests)
      .count("mirror_mismatched_scores", m.mismatched_scores)
      .count("layer_disagreements", disagreements);
  if (tracer) out.raw("layers", layers);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench

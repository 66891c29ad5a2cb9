#include "server/session.h"

#include <utility>

namespace lsd {

StatusOr<ServerSession::PinnedDb> ServerSession::Pin() {
  EpochPtr epoch = store_->snapshot();
  last_epoch_sequence_ = epoch->sequence();
  PinnedDb pinned;
  pinned.epoch = epoch;
  if (hypo_retracts_.empty() && hypo_asserts_.empty()) {
    overlay_db_ = nullptr;  // drop a stale materialization eagerly
    pinned.db = &epoch->db();
    return pinned;
  }
  // A clone whose closure maintenance failed (a tripped request budget)
  // has dropped its closure cache; cloning the epoch again restores it,
  // so the retry is the same extension rather than a full recompute.
  if (overlay_db_ == nullptr ||
      overlay_epoch_sequence_ != epoch->sequence() ||
      overlay_built_version_ != overlay_version_ ||
      overlay_db_->closure_stats() == nullptr) {
    LooseDbOptions options = store_->options();
    options.standard_rules = false;
    auto clone = std::make_unique<LooseDb>(options);
    LSD_RETURN_IF_ERROR(epoch->db().CloneInto(clone.get()));
    for (const NamedFact& f : hypo_retracts_) {
      // A fact retracted globally since the hypothesis was posed is
      // already absent — the hypothesis holds vacuously.
      (void)clone->Retract(f.source, f.relationship, f.target);
    }
    for (const NamedFact& f : hypo_asserts_) {
      clone->Assert(f.source, f.relationship, f.target);
    }
    overlay_db_ = std::move(clone);
    overlay_epoch_sequence_ = epoch->sequence();
    overlay_built_version_ = overlay_version_;
  }
  // No Warm(): the overlay db is private to this session's thread, so
  // its caches may fill lazily like any single-user LooseDb. That lazy
  // fill (the extension by the hypotheses, or a whole-closure rebuild)
  // is exactly the expensive read the request budget must govern — safe
  // here precisely because the clone is single-thread-owned (a tripped
  // fill drops the clone's closure cache, and the next request clones
  // the epoch again and retries).
  overlay_db_->set_read_budget(budget_);
  pinned.db = overlay_db_.get();
  pinned.overlaid = true;
  return pinned;
}

std::string ServerSession::Breadcrumbs() const {
  std::string out;
  for (size_t i = 0; i < trail_.size(); ++i) {
    if (i > 0) out += " > ";
    if (i == trail_pos_) {
      out += "[" + trail_[i] + "]";
    } else {
      out += trail_[i];
    }
  }
  return out;
}

std::shared_ptr<ServerSession> SessionRegistry::Create(size_t max_sessions) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= max_sessions) return nullptr;
  uint64_t id = next_id_++;
  auto session = std::make_shared<ServerSession>(id, store_);
  session->set_registry(this);
  session->set_replication(replication_);
  session->set_governance(governance_);
  sessions_.emplace(id, session);
  return session;
}

void SessionRegistry::Remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

size_t SessionRegistry::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SessionRegistry::total_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

}  // namespace lsd

#include "dir/replica_store.h"

#include <algorithm>
#include <set>

#include "common/log.h"
#include "dir/serve.h"

namespace amoeba::dir {

namespace {

/// self_describing: the intentions slot is the only raw-partition block
/// the RPC service uses, so an update costs exactly the paper's three disk
/// operations: intentions at the peer, the local copy, the lazy peer copy.
constexpr std::uint32_t kIntentBlock = 0;

/// self_describing: put the directory a Bullet file holds (object number,
/// check secret, contents) into `state`; false for any other file, such as
/// a client's.
bool put_dir_file(DirState& state, const bullet::BulletClient::Listed& f) {
  try {
    Reader r(f.data);
    const std::uint32_t obj = r.u32();
    ObjectEntry e{
        .in_use = true, .secret = r.u64(), .seqno = 0, .bullet = f.cap};
    Directory d = Directory::decode(r);
    e.seqno = d.seqno;
    state.put(obj, e, std::move(d));
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

}  // namespace

ReplicaStore::Io::Io(const ReplicaStore& s)
    : rpc(s.machine_), bullet(rpc, bullet_port(s.cfg_.index)),
      disk(rpc, disk_port(s.cfg_.index)) {}

ReplicaStore::ReplicaStore(net::Machine& machine, DirState& state,
                           StoreConfig cfg)
    : machine_(machine),
      state_(state),
      cfg_(cfg),
      flusher_wq_(machine.sim()),
      flush_wq_(machine.sim()),
      mx_flushes_(machine.metrics().counter(cfg.layer, "flushes")) {
  if (cfg_.use_nvram) {
    nvram::Nvram& nv = nvram_device(machine, cfg_.nvram_bytes);
    nv.attach_obs(machine.metrics(), &machine.trace(), machine.id().v);
    log_.emplace(nv);
    mx_full_rejects_ = &machine.metrics().counter("nvram", "full_rejects");
  }
}

nvram::Nvram& ReplicaStore::nvram_device(net::Machine& machine,
                                         std::size_t capacity) {
  return machine.persistent<nvram::Nvram>("dir.nvram", [&machine, capacity] {
    return std::make_unique<nvram::Nvram>(machine.sim(), capacity);
  });
}

Status ReplicaStore::write_commit_block(Io& io, obs::TraceContext tctx) {
  return io.disk.write_block(0, cblock_.serialize(), tctx);
}

Status ReplicaStore::mark_recovering(Io& io) {
  cblock_.recovering = true;
  return write_commit_block(io);
}

Status ReplicaStore::set_config(Io& io, std::uint32_t mask) {
  cblock_.config = mask;
  cblock_.recovering = false;
  return write_commit_block(io);
}

// ------------------------------------------------------------ boot loading

void ReplicaStore::load(Io& io, std::uint64_t& seqno) {
  if (object_table()) {
    load_object_table(io, seqno);
  } else {
    load_self_describing(io, seqno);
  }
  if (log_) {
    for (const auto& [obj, e] : state_.table()) on_disk_seqno_[obj] = e.seqno;
    // A crash mid-append leaves a torn tail record; drop it before replay.
    const std::size_t torn = log_->truncate_torn();
    if (torn > 0) {
      LOG_WARN << machine_.name() << " dropped " << torn
               << " torn nvram tail record(s)";
    }
    nvlog::replay(state_, nv());
    seqno = std::max(seqno, nvlog::max_seqno(nv()));
  }
  if (!object_table()) replay_intent(io, seqno);
}

void ReplicaStore::load_object_table(Io& io, std::uint64_t& seqno) {
  auto cb = io.disk.read_block(0);
  if (cb.is_ok()) {
    try {
      cblock_ = CommitBlock::deserialize(*cb);
    } catch (const DecodeError&) {
      cblock_ = CommitBlock{};
    }
  } else {
    cblock_ = CommitBlock{};  // first boot: pristine partition
    cblock_.set_up(cfg_.index, true);
  }

  // Sequentially scan the admin partition for object-table entries;
  // deleted slots are simply blank.
  state_.clear();
  auto scan = io.disk.scan(1, kMaxObjects);
  if (!scan.is_ok()) scan = std::vector<std::pair<std::uint32_t, Buffer>>{};
  for (const auto& [obj, data] : *scan) {
    ObjectEntry e;
    try {
      Reader r(data);
      e = ObjectEntry::decode(r);
    } catch (const DecodeError&) {
      continue;
    }
    if (!e.in_use) continue;
    auto contents = io.bullet.read(e.bullet);
    if (!contents.is_ok()) {
      LOG_WARN << machine_.name() << " missing bullet file for obj " << obj;
      continue;
    }
    try {
      state_.put(obj, e, Directory::deserialize(*contents));
    } catch (const DecodeError&) {
      LOG_WARN << machine_.name() << " corrupt directory obj " << obj;
    }
  }
  seqno = std::max({seqno, state_.max_dir_seqno(), cblock_.seqno});
}

void ReplicaStore::load_self_describing(Io& io, std::uint64_t& seqno) {
  // Reconstruct the object table by enumerating the bullet server: the
  // files are self-describing.
  auto files = io.bullet.list();
  if (files.is_ok()) {
    for (const auto& f : *files) put_dir_file(state_, f);
  }
  seqno = std::max(seqno, state_.max_dir_seqno());
}

void ReplicaStore::replay_intent(Io& io, std::uint64_t& seqno) {
  // Replay a pending intention (we may have crashed after acking it).
  auto intent = io.disk.read_block(kIntentBlock);
  if (!intent.is_ok() || intent->empty()) return;
  try {
    Reader r(*intent);
    const std::uint64_t s = r.u64();
    const std::uint64_t secret = r.u64();
    Buffer request = r.bytes();
    if (s > seqno) {
      DirState::ApplyEffect effect;
      (void)state_.apply(request, secret, s, &effect);
      seqno = s;
      for (std::uint32_t obj : effect.touched) rewrite(io, obj);
    }
  } catch (const DecodeError&) {
    // Torn intention: ignore.
  }
  (void)io.disk.write_block(kIntentBlock, Buffer{});
}

// ------------------------------------------------------------ disk copies

Result<cap::Capability> ReplicaStore::write(Io& io, std::uint32_t obj,
                                            obs::TraceContext tctx) {
  ObjectEntry* e = state_.entry(obj);
  Directory* d = state_.directory(obj);
  if (e == nullptr || d == nullptr) {
    return Status::error(Errc::internal, "persist of unknown object");
  }
  // From here a disk copy at this seqno may exist, even if the writes
  // below fail: a logged update at or below it is no longer cancellable.
  const std::uint64_t seqno = e->seqno;
  std::uint64_t& on_disk = on_disk_seqno_[obj];
  on_disk = std::max(on_disk, seqno);
  Writer w;
  if (!object_table()) {  // self-describing: object number and secret first
    w.u32(obj);
    w.u64(e->secret);
  }
  d->encode(w);
  auto file = io.bullet.create(w.take(), tctx);
  if (!file.is_ok()) return file.status();
  // The Bullet create yields to the simulator; another process may have
  // applied a delete_dir for this very object while we slept, freeing the
  // map node `e` pointed at. Re-look the object up before touching it; if
  // it is gone, drop the fresh file and report it (the deletion persists
  // the object's removal itself).
  e = state_.entry(obj);
  if (e == nullptr || state_.directory(obj) == nullptr) {
    drop(io, *file);
    return Status::error(Errc::not_found, "object deleted during persist");
  }
  const cap::Capability old = e->bullet;
  e->bullet = *file;
  if (object_table()) {
    // The table block carries the seqno of the contents just written, not
    // the entry's current one: updates applied during the create are not
    // in the file, and boot replays the log records above this seqno.
    ObjectEntry written = *e;
    written.seqno = seqno;
    Writer tw;
    written.encode(tw);
    Status ws = io.disk.write_block(obj, tw.take(), tctx);
    if (!ws.is_ok()) return ws;
  }
  return old;
}

void ReplicaStore::rewrite(Io& io, std::uint32_t obj, obs::TraceContext tctx) {
  auto old = write(io, obj, tctx);
  if (old.is_ok()) drop(io, *old);
}

void ReplicaStore::drop(Io& io, const cap::Capability& file) {
  if (!file.is_null()) (void)io.bullet.del(file);
}

Status ReplicaStore::write_intent(Io& io, std::uint64_t seqno,
                                  std::uint64_t secret, const Buffer& request,
                                  obs::TraceContext tctx) {
  Writer w;
  w.u64(seqno);
  w.u64(secret);
  w.bytes(request);
  return io.disk.write_block(kIntentBlock, w.take(), tctx);
}

std::vector<cap::Capability> ReplicaStore::persist(Io& io,
                                                   std::vector<Update> updates,
                                                   std::uint64_t seqno,
                                                   obs::TraceContext tctx) {
  std::vector<cap::Capability> old_files;
  if (log_) {
    // The log holds a deletion; the directory's file goes like any
    // superseded one (a stale table block naming it is skipped at boot).
    for (const Update& u : updates) {
      if (!u.effect.deleted.empty()) old_files.push_back(u.effect.deleted_file);
    }
    log(std::move(updates), seqno, tctx);
    return old_files;
  }
  std::vector<std::uint32_t> touched;  // each once, in first-touch order
  for (const Update& u : updates) {
    for (std::uint32_t obj : u.effect.touched) {
      if (std::find(touched.begin(), touched.end(), obj) == touched.end()) {
        touched.push_back(obj);
      }
    }
  }
  for (std::uint32_t obj : touched) {
    // Skip objects a later update of the same batch deleted again.
    if (state_.entry(obj) == nullptr) continue;
    auto old = write(io, obj, tctx);
    if (old.is_ok() && !old->is_null()) old_files.push_back(*old);
  }
  for (const Update& u : updates) {
    for (std::uint32_t obj : u.effect.deleted) {
      if (!io.disk.write_block(obj, Buffer{}, tctx).is_ok()) continue;
      cblock_.seqno = std::max(cblock_.seqno, seqno);
      if (write_commit_block(io, tctx).is_ok()) drop(io, u.effect.deleted_file);
    }
  }
  return old_files;
}

// ------------------------------------------------------------ NVRAM log

void ReplicaStore::log(std::vector<Update> updates, std::uint64_t seqno,
                       obs::TraceContext tctx) {
  // An update that changed nothing has nothing to persist, and a logged
  // no-op append could be paired with a later delete of the row's real
  // append by the cancellation below.
  std::erase_if(updates, [](const Update& u) { return !u.effect.any_change; });
  if (updates.empty()) return;
  if (updates.size() == 1) {
    const Update& u = updates[0];
    const auto it = on_disk_seqno_.find(nvlog::request_target(u.request));
    const std::uint64_t on_disk = it == on_disk_seqno_.end() ? 0 : it->second;
    if (log_->try_cancel(u.request, u.effect, on_disk) > 0) return;
  }
  std::vector<nvlog::SubView> subs;
  for (const Update& u : updates) {
    auto op = peek_op(u.request);
    nvlog::SubView sub{seqno, u.secret, 0, u.request};
    if (op.is_ok() && *op == DirOp::create_dir && !u.effect.touched.empty()) {
      sub.objhint = u.effect.touched.front();
    }
    if (op.is_ok() && *op == DirOp::delete_dir && object_table()) {
      // Deletion of an on-disk directory: remember the commit-block seqno
      // obligation for the next flush (Fig. 4).
      pending_commit_seqno_ = std::max(pending_commit_seqno_, seqno);
    }
    subs.push_back(sub);
  }
  Buffer encoded = nvlog::encode(seqno, subs);
  if (!nv().would_fit(encoded.size())) {
    // NVRAM full in the critical path: the update stalls until the flusher
    // retires enough records. This is the visible cost of a small NVRAM
    // (ablated in the benchmarks), and lasts while the storage machine is
    // down.
    ++*mx_full_rejects_;
    while (!nv().would_fit(encoded.size())) {
      flusher_wq_.notify_one();  // start a flush now if none is running
      flush_wq_.wait();
    }
  }
  (void)log_->append(std::move(encoded), tctx);
}

void ReplicaStore::flush(Io& io) {
  if (nv().empty() && pending_commit_seqno_ == 0) return;
  // One walk of the log gives the objects to write and where each record
  // retires; anything appended during the disk writes below stays in the
  // log for the next flush.
  const nvlog::FlushSet fs = nvlog::flush_set(nv());
  std::vector<bool> failed(fs.objs.size());
  std::vector<bool> deleted(fs.objs.size());  // object_table: block cleared
  std::vector<std::uint64_t> after_commit;
  bool written = true;
  auto next = fs.recs.begin();
  // Retire every record whose last object is at or before `point`, unless
  // a write it depends on failed; object_table records that mention a
  // deleted directory wait for the commit block.
  auto retire_through = [&](std::uint32_t point) {
    bool retired = false;
    for (; next != fs.recs.end() && next->point <= point; ++next) {
      bool keep = false;
      bool defer = false;
      for (std::uint32_t m = next->begin; m < next->end; ++m) {
        keep = keep || failed[fs.mentions[m]];
        defer = defer || deleted[fs.mentions[m]];
      }
      if (keep) continue;
      if (defer) {
        after_commit.push_back(next->id);
      } else {
        retired = log_->cancel(next->id) || retired;
      }
    }
    if (retired) flush_wq_.notify_all();
  };
  for (std::uint32_t i = 0; i < fs.objs.size(); ++i) {
    const std::uint32_t obj = fs.objs[i];
    if (state_.entry(obj) != nullptr) {
      auto old = write(io, obj);
      if (old.is_ok()) drop(io, *old);
      // not_found: deleted meanwhile; its own record clears it later.
      failed[i] = !old.is_ok() && old.code() != Errc::not_found;
    } else if (object_table()) {
      deleted[i] = true;
      failed[i] = !io.disk.write_block(obj, Buffer{}).is_ok();
    }
    written = written && !failed[i];
    retire_through(i);
  }
  if (object_table()) {
    cblock_.seqno = std::max(cblock_.seqno, pending_commit_seqno_);
    pending_commit_seqno_ = 0;
    if (write_commit_block(io).is_ok()) {
      for (std::uint64_t id : after_commit) (void)log_->cancel(id);
      if (!after_commit.empty()) flush_wq_.notify_all();
    } else {
      written = false;
    }
  }
  retire_through(nvlog::FlushSet::kEnd);
  if (written) ++mx_flushes_;
}

void ReplicaStore::run_flusher() {
  Io io(*this);
  while (true) {
    (void)flusher_wq_.wait_for(kFlushIdle / 2);
    if (nv().empty() && pending_commit_seqno_ == 0) continue;
    const bool full = static_cast<double>(nv().used_bytes()) >
                      kFlushHighWater * static_cast<double>(nv().capacity());
    const bool idle = machine_.sim().now() - last_activity_ >= kFlushIdle;
    const bool stalled = flush_wq_.waiter_count() > 0;
    if (full || idle || stalled) flush(io);
  }
}

// ------------------------------------------------------------ state transfer

Status ReplicaStore::install(Io& io, const Buffer& snap,
                             std::uint64_t commit_seqno,
                             const std::function<void()>& adopted) {
  // The snapshot's entries name the donor's files, never ours: drop this
  // replica's own directory files first. Clients may keep files on the
  // same Bullet server; those stay.
  std::vector<cap::Capability> own;
  // object_table: every table block this replica may hold; those of
  // directories the snapshot lacks are cleared below.
  std::set<std::uint32_t> held;
  if (object_table()) {
    for (const auto& [obj, e] : state_.table()) {
      own.push_back(e.bullet);
      held.insert(obj);
    }
    if (log_) {
      for (std::uint32_t obj : nvlog::flush_set(nv()).objs) held.insert(obj);
    }
  } else if (auto files = io.bullet.list(); files.is_ok()) {
    DirState listed(state_.port());  // what load() would read back
    for (const auto& f : *files) {
      if (put_dir_file(listed, f)) own.push_back(f.cap);
    }
  }
  for (const auto& file : own) drop(io, file);
  state_ = DirState::from_snapshot(snap, state_.port());
  cblock_.seqno = commit_seqno;
  adopted();
  if (log_) {
    // The snapshot supersedes anything logged locally.
    log_->clear();
    pending_commit_seqno_ = 0;
    flush_wq_.notify_all();
  }
  for (const auto& [obj, e] : state_.table()) {
    auto w = write(io, obj);
    if (!w.is_ok()) return w.status();
  }
  if (!object_table()) return Status::ok();
  for (std::uint32_t obj : held) {
    if (state_.entry(obj) != nullptr) continue;
    Status cs = io.disk.write_block(obj, Buffer{});
    if (!cs.is_ok()) return cs;
  }
  return write_commit_block(io);
}

}  // namespace amoeba::dir

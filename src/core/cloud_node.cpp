#include "core/cloud_node.hpp"

#include "common/fingerprint.hpp"
#include "common/hex.hpp"
#include "common/status.hpp"
#include "core/wire.hpp"
#include "ppe/ore.hpp"

namespace datablinder::core {

using bigint::BigInt;
using doc::Array;
using doc::Object;
using doc::Value;

namespace {
Value ids_to_value(const std::vector<std::string>& ids) {
  Array arr;
  arr.reserve(ids.size());
  for (const auto& id : ids) arr.emplace_back(id);
  return Value(std::move(arr));
}
}  // namespace

CloudNode::CloudNode() {
  register_doc_handlers();
  register_det_handlers();
  register_ope_handlers();
  register_ore_handlers();
  register_mitra_handlers();
  register_mitra_stateless_handlers();
  register_sophos_handlers();
  register_iex_handlers();
  register_zmf_handlers();
  register_agg_handlers();
  register_plain_handlers();
  register_admin_handlers();
}

std::size_t CloudNode::storage_bytes() const {
  std::size_t n = docs_.storage_bytes() + kv_.storage_bytes();
  // SSE server dictionaries.
  for (const auto& [scope, s] : mitra_) n += s->server.dict().storage_bytes();
  for (const auto& [scope, s] : mitra_sl_) {
    n += s->server.entries().storage_bytes() + s->server.counters().storage_bytes();
  }
  for (const auto& [scope, s] : sophos_) n += s->server.dict().storage_bytes();
  for (const auto& [scope, s] : iex_) n += s->server.dict().storage_bytes();
  for (const auto& [scope, s] : zmf_) n += s->server.storage_bytes();
  return n;
}

std::uint64_t CloudNode::state_digest() const {
  // Same traversal as storage_bytes(); per-scope digests combine by sum so
  // unordered scope-map iteration order cannot matter.
  std::uint64_t digest = docs_.fingerprint() * 3 + kv_.fingerprint();
  for (const auto& [scope, s] : mitra_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), s->server.dict().fingerprint());
  }
  for (const auto& [scope, s] : mitra_sl_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), s->server.entries().fingerprint() * 3 +
                                                  s->server.counters().fingerprint());
  }
  for (const auto& [scope, s] : sophos_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), s->server.dict().fingerprint());
  }
  for (const auto& [scope, s] : iex_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), s->server.dict().fingerprint());
  }
  for (const auto& [scope, s] : zmf_) {
    digest += fnv1a(fnv1a(kFnvOffset, scope), s->server.fingerprint());
  }
  for (const auto& [column, col] : agg_) {
    std::uint64_t h = fnv1a(kFnvOffset, column);
    h = fnv1a(h, col.n.to_bytes());
    std::uint64_t cts = 0;
    for (const auto& [id, ct] : col.cts) {
      cts += fnv1a(fnv1a(kFnvOffset, id), ct->to_bytes());
    }
    digest += fnv1a(h, cts);
  }
  return digest;
}

CloudNode::SseScope<sse::MitraServer>& CloudNode::mitra(const std::string& scope) {
  std::lock_guard lock(sse_mutex_);
  auto& slot = mitra_[scope];
  if (!slot) slot = std::make_unique<SseScope<sse::MitraServer>>();
  return *slot;
}

CloudNode::SseScope<sse::MitraStatelessServer>& CloudNode::mitra_sl(
    const std::string& scope) {
  std::lock_guard lock(sse_mutex_);
  auto& slot = mitra_sl_[scope];
  if (!slot) slot = std::make_unique<SseScope<sse::MitraStatelessServer>>();
  return *slot;
}

CloudNode::SseScope<sse::SophosServer>& CloudNode::sophos(const std::string& scope) {
  std::lock_guard lock(sse_mutex_);
  auto it = sophos_.find(scope);
  if (it == sophos_.end()) throw_error(ErrorCode::kNotFound, "sophos: scope not set up");
  return *it->second;
}

CloudNode::SseScope<sse::Iex2LevServer>& CloudNode::iex(const std::string& scope) {
  std::lock_guard lock(sse_mutex_);
  auto& slot = iex_[scope];
  if (!slot) slot = std::make_unique<SseScope<sse::Iex2LevServer>>();
  return *slot;
}

CloudNode::SseScope<sse::IexZmfServer>& CloudNode::zmf(
    const std::string& scope, const sse::ZmfFilterParams* params) {
  std::lock_guard lock(sse_mutex_);
  auto& slot = zmf_[scope];
  if (!slot) {
    slot = std::make_unique<SseScope<sse::IexZmfServer>>(params ? *params
                                                                : sse::ZmfFilterParams{});
  }
  return *slot;
}

// --- encrypted documents -----------------------------------------------------

void CloudNode::register_doc_handlers() {
  rpc_.register_method("doc.put", [this](BytesView p) {
    const Object req = wire::unpack(p);
    doc::Document d;
    d.id = wire::get_str(req, "id");
    d.set("blob", Value(wire::get_bin(req, "blob")));
    docs_.collection(wire::get_str(req, "col")).put(std::move(d));
    return wire::pack({});
  });
  rpc_.register_method("doc.get", [this](BytesView p) {
    const Object req = wire::unpack(p);
    auto d = docs_.collection(wire::get_str(req, "col")).get(wire::get_str(req, "id"));
    if (!d) throw_error(ErrorCode::kNotFound, "doc.get: no such document");
    return wire::pack({{"blob", d->at("blob")}});
  });
  rpc_.register_method("doc.mget", [this](BytesView p) {
    // Batched retrieval: one round trip for a whole candidate set. The
    // response carries only the ids that still exist (in request order);
    // vanished ids are skipped, mirroring the gateway's tolerance for
    // index entries racing with deletions.
    const Object req = wire::unpack(p);
    std::vector<std::string> ids;
    for (const auto& v : wire::get_arr(req, "ids")) ids.push_back(v.as_string());
    const auto found = docs_.collection(wire::get_str(req, "col")).get_many(ids);
    Array out;
    out.reserve(found.size());
    for (const auto& d : found) {
      Object entry;
      entry["id"] = Value(d.id);
      entry["blob"] = d.at("blob");
      out.emplace_back(std::move(entry));
    }
    return wire::pack({{"docs", Value(std::move(out))}});
  });
  rpc_.register_method("doc.del", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const bool erased =
        docs_.collection(wire::get_str(req, "col")).erase(wire::get_str(req, "id"));
    return wire::pack({{"erased", Value(erased)}});
  });
  rpc_.register_method("doc.list", [this](BytesView p) {
    const Object req = wire::unpack(p);
    std::vector<std::string> ids;
    docs_.collection(wire::get_str(req, "col")).scan([&](const doc::Document& d) {
      ids.push_back(d.id);
      return true;
    });
    return wire::pack({{"ids", ids_to_value(ids)}});
  });
}

// --- DET: ciphertext-equality index (KvStore sets) ---------------------------

void CloudNode::register_det_handlers() {
  auto set_key = [](const Object& req) {
    return "det:" + wire::get_str(req, "col") + ":" + wire::get_str(req, "field") + ":" +
           hex_encode(wire::get_bin(req, "label"));
  };
  rpc_.register_method("det.insert", [this, set_key](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.sadd(set_key(req), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("det.remove", [this, set_key](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.srem(set_key(req), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("det.search", [this, set_key](BytesView p) {
    const Object req = wire::unpack(p);
    const auto members = kv_.smembers(set_key(req));
    ++index_ops_;
    return wire::pack(
        {{"ids", ids_to_value({members.begin(), members.end()})}});
  });
}

// --- OPE: order-preserving range index (KvStore zsets) -----------------------

void CloudNode::register_ope_handlers() {
  auto zkey = [](const Object& req) {
    return "ope:" + wire::get_str(req, "col") + ":" + wire::get_str(req, "field");
  };
  rpc_.register_method("ope.insert", [this, zkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.zadd(zkey(req), wire::get_bin(req, "score"), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ope.remove", [this, zkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.zrem(zkey(req), wire::get_bin(req, "score"), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ope.range", [this, zkey](BytesView p) {
    const Object req = wire::unpack(p);
    const auto ids =
        kv_.zrange(zkey(req), wire::get_bin(req, "lo"), wire::get_bin(req, "hi"));
    ++index_ops_;
    return wire::pack({{"ids", ids_to_value(ids)}});
  });
  rpc_.register_method("ope.extreme", [this, zkey](BytesView p) {
    // Returns the minimal or maximal (score, id) pair of the index.
    const Object req = wire::unpack(p);
    const bool want_max = wire::get_int(req, "max") != 0;
    const auto extreme = want_max ? kv_.zmax(zkey(req)) : kv_.zmin(zkey(req));
    ++index_ops_;
    if (!extreme) {
      return wire::pack({{"found", Value(false)}});
    }
    return wire::pack({{"found", Value(true)},
                       {"score", Value(extreme->first)},
                       {"id", Value(extreme->second)}});
  });
}

// --- ORE: left/right comparison scan (KvStore hashes) ------------------------

void CloudNode::register_ore_handlers() {
  auto hkey = [](const Object& req) {
    return "ore:" + wire::get_str(req, "col") + ":" + wire::get_str(req, "field");
  };
  rpc_.register_method("ore.insert", [this, hkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.hset(hkey(req), wire::get_str(req, "id"), wire::get_bin(req, "right"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ore.remove", [this, hkey](BytesView p) {
    const Object req = wire::unpack(p);
    kv_.hdel(hkey(req), wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("ore.range", [this, hkey](BytesView p) {
    // Linear scan comparing each stored right ciphertext against the two
    // left endpoint tokens: lo <= y <= hi.
    const Object req = wire::unpack(p);
    const auto left_lo = ppe::OreLeft::deserialize(wire::get_bin(req, "left_lo"));
    const auto left_hi = ppe::OreLeft::deserialize(wire::get_bin(req, "left_hi"));
    std::vector<std::string> ids;
    for (const auto& [id, right_bytes] : kv_.hgetall(hkey(req))) {
      const auto right = ppe::OreRight::deserialize(right_bytes);
      const auto lo_cmp = ppe::OreCipher::compare(left_lo, right);
      const auto hi_cmp = ppe::OreCipher::compare(left_hi, right);
      ++index_ops_;
      const bool ge_lo = lo_cmp != ppe::OreResult::kGreater;  // lo <= y
      const bool le_hi = hi_cmp != ppe::OreResult::kLess;     // hi >= y
      if (ge_lo && le_hi) ids.push_back(id);
    }
    return wire::pack({{"ids", ids_to_value(ids)}});
  });
}

// --- Mitra --------------------------------------------------------------------

void CloudNode::register_mitra_handlers() {
  rpc_.register_method("mitra.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::MitraUpdateToken token;
    token.address = wire::get_bin(req, "address");
    token.value = wire::get_bin(req, "value");
    mitra(wire::get_str(req, "scope")).write([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("mitra.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::MitraSearchToken token;
    for (const auto& a : wire::get_arr(req, "addresses")) {
      token.addresses.push_back(a.as_binary());
    }
    const auto values =
        mitra(wire::get_str(req, "scope")).read([&](auto& s) { return s.search(token); });
    index_ops_ += token.addresses.size();
    Array arr;
    arr.reserve(values.size());
    for (const auto& v : values) arr.emplace_back(v);
    return wire::pack({{"values", Value(std::move(arr))}});
  });
}

// --- Mitra-Stateless ------------------------------------------------------------
//
// Two extra methods versus plain Mitra: the encrypted keyword-counter slot
// lives server-side so the gateway keeps no state at all.

void CloudNode::register_mitra_stateless_handlers() {
  rpc_.register_method("mitrasl.get_counter", [this](BytesView p) {
    const Object req = wire::unpack(p);
    auto blob = mitra_sl(wire::get_str(req, "scope")).read([&](auto& s) {
      return s.get_counter(wire::get_bin(req, "label"));
    });
    ++index_ops_;
    Object out;
    out["found"] = Value(blob.has_value());
    if (blob) out["blob"] = Value(std::move(*blob));
    return wire::pack(std::move(out));
  });
  rpc_.register_method("mitrasl.update", [this](BytesView p) {
    // Atomic second round: store the new counter blob and the new entry.
    const Object req = wire::unpack(p);
    sse::MitraUpdateToken token;
    token.address = wire::get_bin(req, "address");
    token.value = wire::get_bin(req, "value");
    mitra_sl(wire::get_str(req, "scope")).write([&](auto& s) {
      s.put_counter(wire::get_bin(req, "label"), wire::get_bin(req, "counter"));
      s.apply_update(token);
    });
    index_ops_ += 2;
    return wire::pack({});
  });
  rpc_.register_method("mitrasl.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::MitraSearchToken token;
    for (const auto& a : wire::get_arr(req, "addresses")) {
      token.addresses.push_back(a.as_binary());
    }
    const auto values =
        mitra_sl(wire::get_str(req, "scope")).read([&](auto& s) { return s.search(token); });
    index_ops_ += token.addresses.size();
    Array arr;
    arr.reserve(values.size());
    for (const auto& v : values) arr.emplace_back(v);
    return wire::pack({{"values", Value(std::move(arr))}});
  });
}

// --- Sophos --------------------------------------------------------------------

void CloudNode::register_sophos_handlers() {
  rpc_.register_method("sophos.setup", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::SophosPublicParams params;
    params.n = BigInt::from_bytes(wire::get_bin(req, "n"));
    params.e = BigInt::from_bytes(wire::get_bin(req, "e"));
    params.init_context();  // one Montgomery context for every future search
    SseScope<sse::SophosServer>* scope = nullptr;
    {
      std::lock_guard lock(sse_mutex_);
      auto& slot = sophos_[wire::get_str(req, "scope")];
      if (!slot) slot = std::make_unique<SseScope<sse::SophosServer>>(params);
      scope = slot.get();
    }
    // (Re)set the server under the exclusive lock: a search in flight
    // finishes on the server it started on, and the scope is never freed.
    scope->write([&](auto& s) { s = sse::SophosServer(std::move(params)); });
    return wire::pack({});
  });
  rpc_.register_method("sophos.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::SophosUpdateToken token;
    token.ut = wire::get_bin(req, "ut");
    token.value = wire::get_bin(req, "value");
    sophos(wire::get_str(req, "scope")).write([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("sophos.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::SophosSearchToken token;
    token.kw_token = wire::get_bin(req, "kw_token");
    token.st_current = wire::get_bin(req, "st");
    token.count = static_cast<std::uint64_t>(wire::get_int(req, "count"));
    const std::vector<std::string> ids =
        sophos(wire::get_str(req, "scope")).read([&](auto& s) { return s.search(token); });
    index_ops_ += token.count;
    return wire::pack({{"ids", ids_to_value(ids)}});
  });
}

// --- IEX-2Lev -------------------------------------------------------------------

void CloudNode::register_iex_handlers() {
  rpc_.register_method("iex.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::IexUpdateToken token;
    token.address = wire::get_bin(req, "address");
    token.value = wire::get_bin(req, "value");
    iex(wire::get_str(req, "scope")).write([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("iex.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::IexConjToken token;
    for (const auto& list : wire::get_arr(req, "lists")) {
      std::vector<Bytes> addresses;
      for (const auto& a : list.as_array()) addresses.push_back(a.as_binary());
      index_ops_ += addresses.size();
      token.lists.push_back(std::move(addresses));
    }
    const auto lists =
        iex(wire::get_str(req, "scope")).read([&](auto& s) { return s.search(token); });
    Array out;
    for (const auto& values : lists) {
      Array inner;
      inner.reserve(values.size());
      for (const auto& v : values) inner.emplace_back(v);
      out.emplace_back(std::move(inner));
    }
    return wire::pack({{"lists", Value(std::move(out))}});
  });
}

// --- IEX-ZMF --------------------------------------------------------------------

void CloudNode::register_zmf_handlers() {
  rpc_.register_method("zmf.setup", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::ZmfFilterParams params;
    params.filter_bits = static_cast<std::size_t>(wire::get_int(req, "filter_bits"));
    params.num_hashes = static_cast<std::size_t>(wire::get_int(req, "num_hashes"));
    zmf(wire::get_str(req, "scope"), &params);
    return wire::pack({});
  });
  rpc_.register_method("zmf.update", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::ZmfUpdateToken token;
    token.address = wire::get_bin(req, "address");
    token.value = wire::get_bin(req, "value");
    token.salt = wire::get_bin(req, "salt");
    token.filter = wire::get_bin(req, "filter");
    zmf(wire::get_str(req, "scope"), nullptr).write([&](auto& s) { s.apply_update(token); });
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("zmf.search", [this](BytesView p) {
    const Object req = wire::unpack(p);
    sse::ZmfConjToken token;
    for (const auto& a : wire::get_arr(req, "addresses")) {
      token.addresses.push_back(a.as_binary());
    }
    for (const auto& t : wire::get_arr(req, "tokens")) {
      token.keyword_tokens.push_back(t.as_binary());
    }
    index_ops_ += token.addresses.size();
    const auto values = zmf(wire::get_str(req, "scope"), nullptr).read([&](auto& s) {
      return s.search(token);
    });
    Array arr;
    arr.reserve(values.size());
    for (const auto& v : values) arr.emplace_back(v);
    return wire::pack({{"values", Value(std::move(arr))}});
  });
}

// --- Paillier aggregates ----------------------------------------------------------

void CloudNode::register_agg_handlers() {
  rpc_.register_method("agg.setup", [this](BytesView p) {
    const Object req = wire::unpack(p);
    std::lock_guard lock(agg_mutex_);
    AggColumn& col = agg_[wire::get_str(req, "scope")];
    col.n = BigInt::from_bytes(wire::get_bin(req, "n"));
    col.n_squared = col.n * col.n;
    if (col.n_squared.is_odd()) {
      col.mont_n2 = std::make_shared<const bigint::Montgomery>(col.n_squared);
    }
    return wire::pack({});
  });
  rpc_.register_method("agg.insert", [this](BytesView p) {
    const Object req = wire::unpack(p);
    const BigInt ct = BigInt::from_bytes(wire::get_bin(req, "ct"));
    std::lock_guard lock(agg_mutex_);
    auto it = agg_.find(wire::get_str(req, "scope"));
    if (it == agg_.end()) throw_error(ErrorCode::kNotFound, "agg: scope not set up");
    // Reduced once here, so every later fold step takes it as it is.
    it->second.cts[wire::get_str(req, "id")] =
        std::make_shared<const BigInt>(ct.mod(it->second.n_squared));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("agg.remove", [this](BytesView p) {
    const Object req = wire::unpack(p);
    std::lock_guard lock(agg_mutex_);
    auto it = agg_.find(wire::get_str(req, "scope"));
    if (it != agg_.end()) it->second.cts.erase(wire::get_str(req, "id"));
    ++index_ops_;
    return wire::pack({});
  });
  rpc_.register_method("agg.sum", [this](BytesView p) {
    // Homomorphic fold over the whole column (AggFunction, cloud side).
    const Object req = wire::unpack(p);
    std::vector<std::shared_ptr<const BigInt>> cts;
    std::shared_ptr<const bigint::Montgomery> mont_n2;
    BigInt n_squared;
    {
      std::lock_guard lock(agg_mutex_);
      auto it = agg_.find(wire::get_str(req, "scope"));
      if (it == agg_.end()) throw_error(ErrorCode::kNotFound, "agg: scope not set up");
      const AggColumn& col = it->second;
      cts.reserve(col.cts.size());
      for (const auto& [id, ct] : col.cts) cts.push_back(ct);
      mont_n2 = col.mont_n2;
      if (!mont_n2) n_squared = col.n_squared;
    }
    // The fold runs on the snapshot, outside agg_mutex_: inserts and
    // removes do not queue behind it.
    BigInt acc(1);  // multiplicative identity in Z_{n^2}: Enc-domain zero sum
    if (mont_n2) {
      // One CIOS pass per ciphertext; no division or allocation per step.
      bigint::Montgomery::Product product(*mont_n2);
      for (const auto& ct : cts) product.multiply(*ct);
      acc = product.result();
    } else {
      for (const auto& ct : cts) acc = acc.mul_mod(*ct, n_squared);
    }
    const std::uint64_t count = cts.size();
    index_ops_ += count;
    return wire::pack({{"sum_ct", Value(acc.to_bytes())},
                       {"count", Value(static_cast<std::int64_t>(count))}});
  });
}

// --- plaintext baseline (S_A) --------------------------------------------------

void CloudNode::register_plain_handlers() {
  auto col_name = [](const Object& req) { return "plain:" + wire::get_str(req, "col"); };
  rpc_.register_method("plain.put", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    auto& col = docs_.collection(col_name(req));
    doc::Document d = doc::decode_document(wire::get_bin(req, "doc"));
    col.put(std::move(d));
    return wire::pack({});
  });
  rpc_.register_method("plain.index", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    docs_.collection(col_name(req)).create_index(wire::get_str(req, "field"));
    return wire::pack({});
  });
  rpc_.register_method("plain.get", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    auto d = docs_.collection(col_name(req)).get(wire::get_str(req, "id"));
    if (!d) throw_error(ErrorCode::kNotFound, "plain.get: no such document");
    return wire::pack({{"doc", Value(doc::encode_document(*d))}});
  });
  rpc_.register_method("plain.del", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    docs_.collection(col_name(req)).erase(wire::get_str(req, "id"));
    return wire::pack({});
  });
  auto docs_to_value = [](const std::vector<doc::Document>& found) {
    Array arr;
    arr.reserve(found.size());
    for (const auto& d : found) arr.emplace_back(doc::encode_document(d));
    return Value(std::move(arr));
  };
  rpc_.register_method("plain.find_eq", [this, col_name, docs_to_value](BytesView p) {
    const Object req = wire::unpack(p);
    const auto found = docs_.collection(col_name(req))
                           .find(store::Filter::eq(wire::get_str(req, "field"),
                                                   wire::get(req, "value")));
    return wire::pack({{"docs", docs_to_value(found)}});
  });
  rpc_.register_method("plain.find_range", [this, col_name, docs_to_value](BytesView p) {
    const Object req = wire::unpack(p);
    const auto found = docs_.collection(col_name(req))
                           .find(store::Filter::range(wire::get_str(req, "field"),
                                                      wire::get(req, "lo"),
                                                      wire::get(req, "hi")));
    return wire::pack({{"docs", docs_to_value(found)}});
  });
  rpc_.register_method("plain.find_bool", [this, col_name, docs_to_value](BytesView p) {
    // DNF: array of conjunctions; each conjunction is an array of
    // {field, value} objects.
    const Object req = wire::unpack(p);
    std::vector<store::Filter> disjuncts;
    for (const auto& conj : wire::get_arr(req, "dnf")) {
      std::vector<store::Filter> terms;
      for (const auto& term : conj.as_array()) {
        const Object& t = term.as_object();
        terms.push_back(store::Filter::eq(wire::get_str(t, "field"),
                                          wire::get(t, "value")));
      }
      disjuncts.push_back(store::Filter::and_of(std::move(terms)));
    }
    const auto found =
        docs_.collection(col_name(req)).find(store::Filter::or_of(std::move(disjuncts)));
    return wire::pack({{"docs", docs_to_value(found)}});
  });
  rpc_.register_method("plain.avg", [this, col_name](BytesView p) {
    const Object req = wire::unpack(p);
    const std::string field = wire::get_str(req, "field");
    double sum = 0;
    std::int64_t count = 0;
    docs_.collection(col_name(req)).scan([&](const doc::Document& d) {
      if (d.has(field)) {
        sum += d.at(field).as_double();
        ++count;
      }
      return true;
    });
    return wire::pack({{"sum", Value(sum)}, {"count", Value(count)}});
  });
}

// --- admin / observability -------------------------------------------------------

void CloudNode::register_admin_handlers() {
  // One-round-trip batch execution of queued fire-and-forget updates.
  rpc_.register_method("rpc.batch", net::RpcClient::make_batch_handler(rpc_));
  rpc_.register_method("admin.storage", [this](BytesView) {
    return wire::pack(
        {{"bytes", Value(static_cast<std::int64_t>(storage_bytes()))}});
  });
  rpc_.register_method("admin.index_ops", [this](BytesView) {
    return wire::pack(
        {{"ops", Value(static_cast<std::int64_t>(index_ops_.load()))}});
  });
  rpc_.register_method("admin.digest", [this](BytesView) {
    return wire::pack(
        {{"digest", Value(static_cast<std::int64_t>(state_digest()))}});
  });
}

}  // namespace datablinder::core

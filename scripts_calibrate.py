"""Calibration for the acceptance thresholds; prints one JSON line per stage."""
import json
import time

import numpy as np

from gfnpool.envs import (
    GridEnv,
    MultisetEnv,
    PhyloEnv,
    SequenceEnv,
    StateSpace,
    random_topology,
    simulate_sites,
    split_sites,
)
from gfnpool.losses import LossSpec
from gfnpool.train import TrainConfig, client_configs, train_clients
from gfnpool.aggregate import (
    AggregateConfig,
    aggregate_ab,
    fedavg_average,
    load_local_policies,
    naive_policy_product,
    pcvi_distribution,
    pcvi_fit,
    pcvi_pool,
)
from gfnpool.policy import load_snapshot
from gfnpool import evaluation as ev


def stage(name, **kw):
    print(json.dumps({"stage": name, **kw}), flush=True)


def pipeline(envs, tcfg, acfg, master=11, parallelism=2):
    t0 = time.perf_counter()
    results = train_clients(list(zip(envs, client_configs(tcfg, master, len(envs)))), parallelism=parallelism)
    t_local = time.perf_counter() - t0
    assert all(r.ok for r in results), [r.error for r in results]
    space = StateSpace.enumerated(envs[0])
    target = ev.reward_table(envs, space, acfg.weights)
    t0 = time.perf_counter()
    res = aggregate_ab(envs[0], [r.snapshot for r in results], acfg, eval_target=target)
    t_agg = time.perf_counter() - t0
    final = [r["l1"] for r in res.metrics if np.isfinite(r["l1"])][-1]
    locals_l1 = []
    for env, r in zip(envs, results):
        pol, _ = load_snapshot(r.snapshot, envs[0], space)
        locals_l1.append(ev.l1(ev.exact_pT(pol, space), ev.reward_table([env], space)))
    return dict(
        ep_l1=final,
        locals_l1=[round(v, 4) for v in locals_l1],
        t_local=round(t_local, 1),
        t_agg=round(t_agg, 1),
        results=results,
        space=space,
        target=target,
        global_policy=res.policy,
    )


# --- criterion 1: grid ---------------------------------------------------------
g_envs = [GridEnv(side=9, beacons=((1, 1), (2, 7))), GridEnv(side=9, beacons=((7, 2), (6, 6)))]
tcfg = TrainConfig(loss=LossSpec("CB", epsilon=0.1), epochs=20000, batch=1024, seed=0, eval_every=2000)
acfg = AggregateConfig(epochs=20000, batch=1024, seed=0, eval_every=2000)
out = pipeline(g_envs, tcfg, acfg)
stage("grid", ep_l1=out["ep_l1"], locals=out["locals_l1"], t_local=out["t_local"], t_agg=out["t_agg"])

# --- criterion 2: multiset ------------------------------------------------------
def mset_envs(n, seed=7):
    return [
        MultisetEnv(
            values=tuple(np.random.default_rng(np.random.SeedSequence([seed, k])).uniform(0, 1, 10)),
            target_size=8,
        )
        for k in range(n)
    ]

m_envs = mset_envs(5)
tcfg = TrainConfig(loss=LossSpec("CB", epsilon=0.1), epochs=5000, batch=512, seed=0, eval_every=1000)
acfg = AggregateConfig(epochs=5000, batch=512, seed=0, eval_every=1000)
out = pipeline(m_envs, tcfg, acfg)
space, target = out["space"], out["target"]
log_r = ev.product_log_rewards(m_envs, space)
t0 = time.perf_counter()
table = ev.exact_pT(out["global_policy"], space)
topk_model = ev.topk_avg_log_reward(table, space, log_r, 800, sample_budget=10**6)
topk_exact = ev.topk_avg_log_reward(target, space, log_r, 800, sample_budget=10**6)
samples = ev.sample_terminals(out["global_policy"], space, 10**6, np.random.default_rng(5))
topk_sampled = ev.topk_avg_log_reward(samples, space, log_r, 800)
locals_ = load_local_policies(m_envs[0], [r.snapshot for r in out["results"]], space)
fits = [pcvi_fit(p, space, 10**5, np.random.default_rng(42 + i)) for i, p in enumerate(locals_)]
pcvi_l1 = ev.l1(pcvi_distribution(pcvi_pool(fits), space), target)
avg_pol, _ = load_snapshot(fedavg_average([r.snapshot for r in out["results"]]), m_envs[0], space)
fedavg_l1 = ev.l1(ev.exact_pT(avg_pol, space), target)
stage("multiset", ep_l1=out["ep_l1"], locals=out["locals_l1"], pcvi=round(pcvi_l1, 4),
      fedavg=round(fedavg_l1, 4), topk_model=topk_model, topk_exact=topk_exact,
      topk_sampled=topk_sampled, t_local=out["t_local"], t_agg=out["t_agg"],
      t_eval=round(time.perf_counter() - t0, 1))

# --- criterion 3: sequences ------------------------------------------------------
def seq_envs(n, seed=13):
    out = []
    for k in range(n):
        gen = np.random.default_rng(np.random.SeedSequence([seed, k]))
        out.append(SequenceEnv(pos_scores=tuple(gen.uniform(0, 1, 6)), token_scores=tuple(gen.uniform(-1, 1, 6))))
    return out

s_envs = seq_envs(5)
tcfg = TrainConfig(loss=LossSpec("CB", epsilon=0.1), epochs=5000, batch=512, seed=0, eval_every=1000)
acfg = AggregateConfig(epochs=5000, batch=512, seed=0, eval_every=1000)
out = pipeline(s_envs, tcfg, acfg)
space, target = out["space"], out["target"]
locals_ = load_local_policies(s_envs[0], [r.snapshot for r in out["results"]], space)
fits = [pcvi_fit(p, space, 10**5, np.random.default_rng(17 + i)) for i, p in enumerate(locals_)]
pcvi_l1 = ev.l1(pcvi_distribution(pcvi_pool(fits), space), target)
naive_l1 = ev.l1(ev.exact_pT(naive_policy_product(locals_, space), space), target)
stage("sequence", ep_l1=out["ep_l1"], locals=out["locals_l1"], pcvi=round(pcvi_l1, 4),
      naive=round(naive_l1, 4), t_local=out["t_local"], t_agg=out["t_agg"])

# --- criterion 4: phylo -----------------------------------------------------------
gen = np.random.default_rng(np.random.SeedSequence([1]))
truth5 = random_topology(5, gen)
sites5 = simulate_sites(truth5, 5, 500, 1.0, 0.1, gen)
full5 = PhyloEnv(n_leaves=5, sites=sites5, branch_length=0.1, mu=1.0, gamma=2.0, n_clients=1)
shards = split_sites(full5, 3)
tcfg = TrainConfig(loss=LossSpec("CB", epsilon=0.1), epochs=5000, batch=512, seed=0, eval_every=1000)
acfg = AggregateConfig(epochs=5000, batch=512, seed=0, eval_every=1000)
out = pipeline(shards, tcfg, acfg)
stage("phylo5", ep_l1=out["ep_l1"], locals=out["locals_l1"], t_local=out["t_local"], t_agg=out["t_agg"])

# 7-leaf smoke: enumerate + short run, sampled eval
t0 = time.perf_counter()
truth7 = random_topology(7, gen)
sites7 = simulate_sites(truth7, 7, 2500, 1.0, 0.1, gen)
full7 = PhyloEnv(n_leaves=7, sites=sites7, branch_length=0.1, mu=1.0, gamma=2.0, n_clients=1)
shards7 = split_sites(full7, 5)
t_enum0 = time.perf_counter()
space7 = StateSpace.enumerated(shards7[0])
t_enum = time.perf_counter() - t_enum0
tcfg7 = TrainConfig(loss=LossSpec("CB", epsilon=0.1), epochs=300, batch=256, seed=0,
                    eval_every=150, eval_mode="sampled", eval_samples=20000)
acfg7 = AggregateConfig(epochs=300, batch=256, seed=0, eval_every=150, eval_mode="sampled", eval_samples=20000)
out7 = pipeline(shards7, tcfg7, acfg7, parallelism=2)
stage("phylo7", ep_l1=out7["ep_l1"], n_states=space7.n_states, t_enum=round(t_enum, 1),
      t_local=out7["t_local"], t_agg=out7["t_agg"], t_total=round(time.perf_counter() - t0, 1))

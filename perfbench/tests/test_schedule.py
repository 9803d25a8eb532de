from perfbench.schedule import SERVE_METHODS, row_order, serve_mix


def test_same_seed_same_inputs():
    assert serve_mix(3, 1000, 500, 0.7, 200) == serve_mix(3, 1000, 500, 0.7, 200)
    assert row_order(3, 450, "explain-short") == row_order(3, 450, "explain-short")


def test_other_seed_other_inputs():
    assert serve_mix(3, 1000, 500, 0.7, 200) != serve_mix(4, 1000, 500, 0.7, 200)
    assert row_order(3, 450, "explain-short") != row_order(4, 450, "explain-short")


def test_mix_stays_in_the_key_space_and_uses_every_method():
    mix = serve_mix(1, 1000, 2000, 0.7, 200)
    assert len(mix) == 2000
    assert all(0 <= k.pair < 1000 for k in mix)
    assert {k.method for k in mix} == set(SERVE_METHODS)


def test_each_epoch_draws_skewed_keys_from_its_own_block():
    mix = serve_mix(1, 1000, 1000, 0.85, 200)
    epochs = [mix[i:i + 200] for i in range(0, 1000, 200)]
    blocks = [{k.pair for k in epoch} for epoch in epochs]
    for first in range(len(blocks)):
        for second in range(first + 1, len(blocks)):
            assert not blocks[first] & blocks[second]
    for epoch in epochs:
        counts = {}
        for k in epoch:
            counts[k.pair] = counts.get(k.pair, 0) + 1
        assert max(counts.values()) >= 10


def test_row_order_is_a_permutation():
    assert sorted(row_order(9, 100, "bulk-long")) == list(range(100))

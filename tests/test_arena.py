"""Unit tests for the reusable buffer arena (repro.runtime.arena)."""

import gc

import numpy as np
import pytest

from repro.runtime.arena import MIN_BLOCK_BYTES, BufferArena, size_class


class TestSizeClass:
    def test_minimum_block(self):
        assert size_class(1) == MIN_BLOCK_BYTES
        assert size_class(MIN_BLOCK_BYTES) == MIN_BLOCK_BYTES

    def test_rounds_up_to_power_of_two(self):
        assert size_class(MIN_BLOCK_BYTES + 1) == 2 * MIN_BLOCK_BYTES
        assert size_class(100_000) == 1 << 17

    def test_exact_power_is_itself(self):
        assert size_class(1 << 20) == 1 << 20

    def test_zero_clamps_to_minimum(self):
        assert size_class(0) == MIN_BLOCK_BYTES


class TestAcquireRelease:
    def test_fresh_lease_counts_as_allocation(self):
        with BufferArena() as arena:
            block = arena.acquire(1000)
            assert block.refs == 1
            assert block.capacity == MIN_BLOCK_BYTES
            assert arena.stats()["allocations"] == 1
            assert arena.stats()["reuses"] == 0
            block.release()

    def test_release_then_acquire_reuses(self):
        with BufferArena() as arena:
            first = arena.acquire(1000)
            first.release()
            second = arena.acquire(1000)
            assert second is first  # same block, popped off the free list
            stats = arena.stats()
            assert stats["allocations"] == 1
            assert stats["reuses"] == 1
            second.release()

    def test_different_size_classes_do_not_mix(self):
        with BufferArena() as arena:
            small = arena.acquire(100)
            small.release()
            big = arena.acquire(10 * MIN_BLOCK_BYTES)
            assert big is not small
            assert arena.stats()["allocations"] == 2
            big.release()

    def test_empty_returns_writable_view(self):
        with BufferArena() as arena:
            block, view = arena.empty((8, 4), np.float64)
            assert view.shape == (8, 4)
            assert view.dtype == np.float64
            view[:] = 7.5
            assert np.all(block.ndarray((8, 4), np.float64) == 7.5)
            block.release()

    def test_view_beyond_capacity_rejected(self):
        with BufferArena() as arena:
            block = arena.acquire(64)
            with pytest.raises(ValueError, match="exceeds"):
                block.ndarray((MIN_BLOCK_BYTES,), np.float64)
            block.release()


class TestRefcounting:
    def test_retain_keeps_block_leased(self):
        with BufferArena() as arena:
            block = arena.acquire(100)
            block.retain()
            assert block.refs == 2
            block.release()
            # Still leased by the co-owner: nothing returned yet.
            assert arena.stats()["releases"] == 0
            assert arena.stats()["free_blocks"] == 0
            block.release()
            assert arena.stats()["releases"] == 1
            assert arena.stats()["free_blocks"] == 1

    def test_release_past_zero_raises(self):
        with BufferArena() as arena:
            block = arena.acquire(100)
            block.release()
            with pytest.raises(RuntimeError, match="not leased"):
                block.release()

    def test_retain_unleased_raises(self):
        with BufferArena() as arena:
            block = arena.acquire(100)
            block.release()
            with pytest.raises(RuntimeError, match="not leased"):
                block.retain()


class TestByteBound:
    def test_release_beyond_budget_destroys(self):
        arena = BufferArena(max_free_bytes=MIN_BLOCK_BYTES)
        a = arena.acquire(100)
        b = arena.acquire(100)
        a.release()  # fills the whole free budget
        b.release()  # over budget: destroyed, not pooled
        stats = arena.stats()
        assert stats["free_blocks"] == 1
        assert stats["free_bytes"] == MIN_BLOCK_BYTES
        assert stats["trimmed"] == 1
        arena.close()

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BufferArena(max_free_bytes=0)


class TestClose:
    def test_close_is_idempotent_and_blocks_acquire(self):
        arena = BufferArena()
        arena.close()
        arena.close()
        assert arena.closed
        with pytest.raises(RuntimeError, match="closed"):
            arena.acquire(100)

    def test_strict_close_raises_on_leak(self):
        arena = BufferArena()
        block = arena.acquire(100)
        with pytest.raises(RuntimeError, match="leased"):
            arena.close(strict=True)
        assert arena.stats()["leaked"] == 1
        # The caller-held view stays valid after the leak-check close.
        assert block.ndarray((4,), np.uint8).shape == (4,)

    def test_clean_close_reports_no_leaks(self):
        arena = BufferArena()
        arena.acquire(100).release()
        stats = arena.close(strict=True)
        assert stats["leaked"] == 0
        assert stats["free_blocks"] == 0

    def test_release_after_close_destroys(self):
        arena = BufferArena()
        block = arena.acquire(100)
        arena.close()
        block.release()  # late release: destroyed, never pooled
        assert arena.stats()["free_blocks"] == 0


class TestAutoReclaim:
    def test_dropped_lease_is_reclaimed_at_gc(self):
        arena = BufferArena()
        block = arena.acquire(1 << 16)
        del block  # lease dropped without release()
        gc.collect()
        assert arena.stats()["auto_reclaimed"] == 1
        arena.close()

//! A page version as windows into the entry buffers of the versions that
//! wrote them, dropping superseded versions by key as it merges; the flat
//! entry list it replaced is the reference.
//!
//! [`flat_next_version`] is `IndexPage::next_version` as it was: each
//! removed key resolved to the version it supersedes by binary search
//! ([`current_version_of`], which publication called before the merge),
//! then one sorted merge of the whole entry list with those IDs and the
//! adds into a new `Vec`.  [`diff_sorted`] is the delta's diff as it was:
//! one two-pointer walk over two flat lists.  Over random pages (an empty
//! one among them, some listing an ID twice, some keys in two versions)
//! and chains of 1–40 versions — each step writing one to three pages with
//! one run's writer, with removed keys that the page does not list, that
//! are named twice, that have two versions listed and that sit at the ends
//! of windows, and adds before, between and after the entries — every
//! version must read like the flat list: its entries, the version
//! [`current_version_of`] finds and `contains` of every key and ID drawn,
//! and `serialized_size`; the writer must keep by pointer exactly the
//! windows that dropping the resolved IDs keeps; and the windowed diff of
//! any two versions of a page must equal the flat diff.
//!
//! `cargo test` runs 20 random cases in a debug build; a release build
//! runs all 300.

use super::*;
use crate::delta::diff_windows;
use orchestra_common::rng::{seeded, StdRng};
use std::cmp::Ordering;

/// The (oldest) version of the tuple with key `key` that `page` lists,
/// found by binary search: entries order by key first.
pub(super) fn current_version_of<'p>(page: &'p IndexPage, key: &[Value]) -> Option<&'p PageEntry> {
    (page.entries.first_not(|e| *e.id.key < *key)).filter(|e| *e.id.key == *key)
}

/// The versions of `page` that removing `keys` supersedes: each key's
/// oldest listed version, if the page lists the key.
fn resolve<'p>(page: &'p IndexPage, keys: &[Vec<Value>]) -> Vec<&'p TupleId> {
    let versions = keys.iter().map(|key| current_version_of(page, key));
    versions.flatten().map(|entry| &entry.id).collect()
}

/// The next version of `entries` as one flat sorted merge, dropping every
/// entry equal to an ID of `remove`.
fn flat_next_version(
    entries: &[PageEntry],
    mut remove: Vec<&TupleId>,
    mut add: Vec<PageEntry>,
) -> Vec<PageEntry> {
    remove.sort_unstable();
    add.sort();
    let mut next = Vec::with_capacity(entries.len() + add.len());
    let mut remove = remove.into_iter().peekable();
    let mut add = add.into_iter().peekable();
    for entry in entries {
        while remove.next_if(|r| **r < entry.id).is_some() {}
        if remove.peek().is_some_and(|r| **r == entry.id) {
            continue;
        }
        while let Some(new) = add.next_if(|a| a.id < entry.id) {
            next.push(new);
        }
        next.push(entry.clone());
    }
    next.extend(add);
    next
}

/// The entries only in `old` and those only in `new`, by one walk over
/// two flat ID-sorted lists.
fn diff_sorted(old: &[PageEntry], new: &[PageEntry]) -> (Vec<PageEntry>, Vec<PageEntry>) {
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut o, mut n) = (0, 0);
    while o < old.len() && n < new.len() {
        match old[o].id.cmp(&new[n].id) {
            Ordering::Less => {
                removed.push(old[o].clone());
                o += 1;
            }
            Ordering::Greater => {
                added.push(new[n].clone());
                n += 1;
            }
            Ordering::Equal => {
                o += 1;
                n += 1;
            }
        }
    }
    removed.extend_from_slice(&old[o..]);
    added.extend_from_slice(&new[n..]);
    (removed, added)
}

/// Keys are drawn from `0..KEYS`; adds also land below and above.
const KEYS: i64 = 48;

/// A key in `lo..hi`.
fn key(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    lo + i64::from(rng.random_range(0..(hi - lo) as u32))
}

fn id(key: i64, epoch: u64) -> TupleId {
    TupleId::new(vec![Value::Int(key)], Epoch(epoch))
}

/// An entry listing `key` at `epoch`, with a slot that is a function of
/// the ID, as publication gives one ID one slot.
fn entry(key: i64, epoch: u64) -> PageEntry {
    let slot = (key as u32).wrapping_mul(131) ^ epoch as u32;
    PageEntry::hashed(id(key, epoch), slot)
}

/// A random first page: empty, small or several windows long, some keys
/// in more than one version and some IDs listed twice.
fn random_entries(rng: &mut StdRng) -> Vec<PageEntry> {
    let len = match rng.random_range(0..4u32) {
        0 => 0,
        1 => rng.random_range(1..=LEAF),
        _ => rng.random_range(LEAF..=8 * LEAF),
    };
    let mut entries: Vec<PageEntry> = (0..len)
        .map(|_| entry(key(rng, 0, KEYS), rng.random_range(0..3u64)))
        .collect();
    if !entries.is_empty() && rng.random_bool(0.3) {
        let twice = entries[rng.random_range(0..entries.len())].clone();
        entries.push(twice);
    }
    entries
}

/// The removes and adds of one publication at `epoch` to `page`, which
/// lists `entries`: keys it lists (some twice, some at the end of a
/// window, some in two versions), keys it does not, and new entries
/// before, between and after its own, some of one ID twice.
fn random_change(
    rng: &mut StdRng,
    page: &IndexPage,
    entries: &[PageEntry],
    epoch: u64,
) -> (Vec<Vec<Value>>, Vec<PageEntry>) {
    let ends: Vec<&PageEntry> = (page.entries.windows())
        .flat_map(|w| [&w[0], &w[w.len() - 1]])
        .collect();
    let mut remove: Vec<Vec<Value>> = Vec::new();
    for _ in 0..rng.random_range(0..=6u32) {
        let key = match rng.random_range(0..10u32) {
            0..=4 if !entries.is_empty() => {
                entries[rng.random_range(0..entries.len())].id.key.to_vec()
            }
            5..=6 if !ends.is_empty() => ends[rng.random_range(0..ends.len())].id.key.to_vec(),
            _ => vec![Value::Int(key(rng, -2, KEYS + 2))],
        };
        if rng.random_bool(0.2) {
            remove.push(key.clone());
        }
        remove.push(key);
    }
    let mut add = Vec::new();
    for _ in 0..rng.random_range(0..=2 * LEAF as u32) {
        let key = match rng.random_range(0..6u32) {
            0 => key(rng, -8, 0),
            1 => key(rng, KEYS, KEYS + 8),
            _ => key(rng, 0, KEYS),
        };
        // Mostly the publication's own epoch; now and then an ID the page
        // may already list.
        let epoch = if rng.random_bool(0.9) {
            epoch
        } else {
            rng.random_range(0..epoch)
        };
        let new = entry(key, epoch);
        if rng.random_bool(0.1) {
            add.push(new.clone());
        }
        add.push(new);
    }
    (remove, add)
}

/// The windows of `prev` that a writer dropping the IDs `remove` and adding
/// `add` keeps: those that hold no removed ID and in whose stretch (from
/// its first entry, or from the start for the first window, to the next
/// window's first entry) no add falls.
fn kept_windows<'p>(
    prev: &'p IndexPage,
    remove: &[&TupleId],
    add: &[PageEntry],
) -> Vec<&'p [PageEntry]> {
    let windows: Vec<&[PageEntry]> = prev.entries.windows().collect();
    let untouched = |at: usize| {
        let (first, last) = (&windows[at][0].id, &windows[at][windows[at].len() - 1].id);
        let next = windows.get(at + 1).map(|w| &w[0].id);
        let removed = remove.iter().any(|r| first <= *r && *r <= last);
        let added = add
            .iter()
            .any(|a| (at == 0 || *first <= a.id) && next.is_none_or(|n| a.id < *n));
        !removed && !added
    };
    (0..windows.len())
        .filter(|at| untouched(*at))
        .map(|at| windows[at])
        .collect()
}

/// `page` must read like `flat`.
fn assert_reads_like(at: &str, page: &IndexPage, flat: &[PageEntry], rng: &mut StdRng) {
    let listed: Vec<&PageEntry> = page.entries.iter().collect();
    assert!(listed.iter().copied().eq(flat), "{at}: entries");
    assert_eq!(page.len(), flat.len(), "{at}: len");
    assert_eq!(
        page.entries.iter().len(),
        flat.len(),
        "{at}: iterator length"
    );
    let windows: Vec<&[PageEntry]> = page.entries.windows().collect();
    assert!(
        windows.iter().all(|w| (1..=LEAF).contains(&w.len())),
        "{at}: window sizes"
    );
    assert!(windows.into_iter().flatten().eq(flat), "{at}: windows");
    let flat_size = 64 + flat.iter().map(|e| e.id.serialized_size()).sum::<usize>();
    assert_eq!(page.serialized_size(), flat_size, "{at}: serialized size");
    for key in -9..KEYS + 9 {
        let key = [Value::Int(key)];
        let expected = flat.iter().find(|e| *e.id.key == key);
        assert_eq!(
            current_version_of(page, &key),
            expected,
            "{at}: version of {key:?}"
        );
    }
    let probes = flat
        .iter()
        .map(|e| e.id.clone())
        .chain((0..8).map(|_| id(key(rng, -2, KEYS + 2), rng.random_range(0..50u64))));
    for probe in probes {
        let expected = flat.iter().any(|e| e.id == probe);
        assert_eq!(page.contains(&probe), expected, "{at}: contains {probe}");
    }
}

/// The windowed diff of two versions must be the flat one.
fn assert_diff_like(
    at: &str,
    old: &IndexPage,
    new: &IndexPage,
    old_flat: &[PageEntry],
    new_flat: &[PageEntry],
) {
    assert_eq!(
        diff_windows(&old.entries, &new.entries),
        diff_sorted(old_flat, new_flat),
        "{at}: diff"
    );
}

#[test]
fn windowed_pages_read_what_flat_pages_read() {
    let cases = if cfg!(debug_assertions) { 20 } else { 300 };
    let mut rng = seeded(0x9a6e_1ea5);
    let (mut kept, mut written) = (0, 0);
    for case in 0..cases {
        let width = rng.random_range(1..=3usize);
        // Per page of the run: every version, and each as a flat list.
        let mut chains: Vec<Vec<(IndexPage, Vec<PageEntry>)>> = (0..width as u32)
            .map(|partition| {
                let mut flat = random_entries(&mut rng);
                let page = IndexPage::new(
                    PageId::new("R", Epoch(0), partition),
                    KeyRange::full(),
                    flat.clone(),
                );
                flat.sort();
                vec![(page, flat)]
            })
            .collect();
        for (partition, chain) in chains.iter().enumerate() {
            assert_reads_like(
                &format!("case {case}, page {partition}, version 0"),
                &chain[0].0,
                &chain[0].1,
                &mut rng,
            );
        }
        for epoch in 1..rng.random_range(1..=40u64) {
            let changes: Vec<_> = (chains.iter())
                .map(|chain| {
                    let (page, flat) = &chain[chain.len() - 1];
                    random_change(&mut rng, page, flat, epoch)
                })
                .collect();
            let prevs = chains.iter().map(|chain| &chain[chain.len() - 1].0);
            let mut writer = PageWriter::for_pages(
                prevs
                    .clone()
                    .zip(&changes)
                    .map(|(p, (r, a))| (Some(&p.entries), r.len(), a.len())),
            );
            let room = |w: &PageWriter| {
                let lists = [w.remove.capacity(), w.add.capacity()];
                (lists, w.written.capacity(), w.pieces.capacity())
            };
            let before = room(&writer);
            let mut versions = Vec::with_capacity(width);
            for (partition, (chain, (remove, add))) in chains.iter().zip(&changes).enumerate() {
                let (prev, prev_flat) = &chain[chain.len() - 1];
                writer.remove.extend(remove.iter().map(Vec::as_slice));
                writer.add.extend(add.iter().cloned());
                let page = IndexPage {
                    id: PageId::new("R", Epoch(epoch), partition as u32),
                    range: prev.range,
                    entries: writer.write(Some(&prev.entries)),
                };
                assert_eq!(
                    room(&writer),
                    before,
                    "case {case}, epoch {epoch}: the writer's room was short"
                );
                let resolved = resolve(prev, remove);
                let flat = flat_next_version(prev_flat, resolved.clone(), add.clone());
                let at = format!("case {case}, page {partition}, version {epoch}");
                assert_reads_like(&at, &page, &flat, &mut rng);
                // The standalone derivation writes the same entries.
                let keys = remove.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    prev.next_version(Epoch(epoch), keys, add.clone()).entries,
                    page.entries,
                    "{at}: next_version"
                );
                // The writer keeps what dropping the resolved IDs keeps.
                let shared: Vec<&[PageEntry]> = (prev.entries.windows())
                    .filter(|p| page.entries.windows().any(|w| std::ptr::eq(w, *p)))
                    .collect();
                let expected = kept_windows(prev, &resolved, add);
                assert!(
                    shared.len() == expected.len()
                        && shared
                            .iter()
                            .zip(&expected)
                            .all(|(a, b)| std::ptr::eq(*a, *b)),
                    "{at}: windows kept"
                );
                kept += shared.len();
                written += page.entries.windows().count() - shared.len();
                assert_diff_like(&at, prev, &page, prev_flat, &flat);
                let (older, older_flat) = &chain[rng.random_range(0..chain.len())];
                assert_diff_like(
                    &format!("{at} against an older version"),
                    older,
                    &page,
                    older_flat,
                    &flat,
                );
                assert_diff_like(&format!("{at} backwards"), &page, older, &flat, older_flat);
                versions.push((page, flat));
            }
            // The writer's removes borrow the previous versions until here.
            drop(writer);
            for (chain, version) in chains.iter_mut().zip(versions) {
                chain.push(version);
            }
        }
    }
    // Both kinds of window were exercised.
    assert!(
        kept > 0 && written > 0,
        "{kept} windows kept, {written} written"
    );
}

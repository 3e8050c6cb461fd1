//! The worker pool behind the binaries' `--jobs N` flag.

/// Order-preserving parallel map over a work list: up to `jobs` worker
/// threads pull items off a shared index and results land at their item's
/// position, so downstream printing/aggregation stays byte-identical to the
/// sequential order.  `jobs <= 1` runs inline with no threads at all.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every slot is filled before the scope exits")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let out = par_map(jobs, &items, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(4, &[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(4, &[9], |&x| x + 1), vec![10]);
    }
}

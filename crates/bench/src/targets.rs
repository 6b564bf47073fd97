//! The `repro` target table: one row per `repro all` target, in the
//! order `all` renders them.
//!
//! Every row submits its module's cells to a shared [`Batch`] and hands
//! back the deferred renderer of its typed `Pending`. [`run`] drives any
//! list of rows — one for `repro <target>`, the whole table for
//! `repro all` — through the same submit → [`Batch::run`] → finish
//! path, so adding a target takes one row.

use crate::ext_obs::ObsOptions;
use crate::pool::Batch;
use crate::{
    eq1, ext_chaos, ext_diagnose, ext_faults, ext_obs, ext_overlap, ext_pipeline, ext_rack,
    ext_refine, ext_replay, ext_serve, ext_staleness, fig1, fig10, fig11, fig12, fig2, fig8, fig9,
    tab2, tab3, tab4, Effort,
};

/// What the `repro` command line passes to a target.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--quick` (default) or `--full`.
    pub effort: Effort,
    /// `--iters N`: requests served per operating point by `ext-serve`,
    /// `ext-chaos` and `ext-diagnose`.
    pub iters: Option<usize>,
    /// `ext-obs` baseline/tolerance flags.
    pub obs: ObsOptions,
}

/// Deferred renderer of one target's pooled cells; returns the target's
/// pass/fail verdict (always `true` except the `ext-obs` gate).
pub type Finish = Box<dyn FnOnce() -> bool>;

/// One row of the table.
pub struct Target {
    /// Canonical name, also the banner `repro all` prints.
    pub name: &'static str,
    /// Other command names that run this row.
    pub aliases: &'static [&'static str],
    /// Submits the target's cells and returns its renderer.
    pub submit: fn(&mut Batch, &RunArgs) -> Finish,
}

impl Target {
    const fn new(name: &'static str, submit: fn(&mut Batch, &RunArgs) -> Finish) -> Self {
        Self {
            name,
            aliases: &[],
            submit,
        }
    }

    const fn aliased(self, aliases: &'static [&'static str]) -> Self {
        Self { aliases, ..self }
    }

    /// The canonical name followed by the aliases.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        std::iter::once(self.name).chain(self.aliases.iter().copied())
    }
}

/// Wraps a module's `finish` as an always-passing [`Finish`].
fn rendered<P: 'static, R: 'static>(pending: P, finish: fn(P) -> R) -> Finish {
    Box::new(move || {
        finish(pending);
        true
    })
}

/// Every `repro all` target, in render order.
pub static TARGETS: [Target; 22] = [
    Target::new("tab2", |b, _| rendered(tab2::submit(b), tab2::finish)),
    Target::new("eq1", |b, _| rendered(eq1::submit(b), eq1::finish)),
    Target::new("fig1", |b, a| {
        rendered(fig1::submit(b, a.effort), fig1::finish)
    })
    .aliased(&["fig1a", "fig1b"]),
    Target::new("fig2", |b, _| rendered(fig2::submit(b), fig2::finish)),
    Target::new("fig8", |b, a| {
        rendered(fig8::submit(b, a.effort), fig8::finish)
    }),
    Target::new("fig9", |b, a| {
        rendered(fig9::submit(b, a.effort), fig9::finish)
    }),
    Target::new("fig10", |b, a| {
        rendered(fig10::submit(b, a.effort), fig10::finish)
    })
    .aliased(&["fig10a", "fig10b"]),
    Target::new("fig11", |b, _| rendered(fig11::submit(b), fig11::finish)),
    Target::new("fig12", |b, a| {
        rendered(fig12::submit(b, a.effort), fig12::finish)
    }),
    Target::new("tab3", |b, a| {
        rendered(tab3::submit(b, a.effort), tab3::finish)
    }),
    Target::new("tab4", |b, _| rendered(tab4::submit(b), tab4::finish)),
    Target::new("ext-refine", |b, _| {
        rendered(ext_refine::submit(b), ext_refine::finish)
    }),
    Target::new("ext-staleness", |b, _| {
        rendered(ext_staleness::submit(b), ext_staleness::finish)
    }),
    Target::new("ext-rack", |b, _| {
        rendered(ext_rack::submit(b), ext_rack::finish)
    }),
    Target::new("ext-overlap", |b, _| {
        rendered(ext_overlap::submit(b), ext_overlap::finish)
    }),
    Target::new("ext-pipeline", |b, _| {
        rendered(ext_pipeline::submit(b), ext_pipeline::finish)
    }),
    Target::new("ext-replay", |b, a| {
        rendered(ext_replay::submit(b, a.effort), ext_replay::finish)
    }),
    Target::new("ext-faults", |b, _| {
        rendered(ext_faults::submit(b), ext_faults::finish)
    }),
    Target::new("ext-serve", |b, a| {
        rendered(ext_serve::submit(b, a.effort, a.iters), ext_serve::finish)
    }),
    Target::new("ext-chaos", |b, a| {
        rendered(ext_chaos::submit(b, a.effort, a.iters), ext_chaos::finish)
    }),
    Target::new("ext-obs", |b, a| {
        let pending = ext_obs::submit(b);
        let opts = a.obs.clone();
        Box::new(move || ext_obs::finish(&opts, pending))
    }),
    Target::new("ext-diagnose", |b, a| {
        rendered(
            ext_diagnose::submit(b, a.effort, a.iters),
            ext_diagnose::finish,
        )
    }),
];

/// The row named `name`, by canonical name or alias.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.names().any(|n| n == name))
}

/// Runs `rows` on one shared pool: every row's cells are submitted up
/// front, executed across `jobs` workers, then rendered row by row in
/// order — so stdout and every artifact are byte-identical to a
/// `--jobs 1` run. With `banners`, each row's output is headed by its
/// name and followed by its summed cell time on stderr. Returns `false`
/// if any row's verdict failed.
pub fn run(rows: &[Target], args: &RunArgs, jobs: usize, banners: bool) -> bool {
    let mut batch = Batch::new();
    let mut pending = Vec::with_capacity(rows.len());
    for row in rows {
        let first = batch.len();
        let finish = (row.submit)(&mut batch, args);
        pending.push((row.name, first..batch.len(), finish));
    }
    let stats = batch.run(jobs);
    let mut ok = true;
    for (name, cells, finish) in pending {
        if banners {
            println!("\n================ {name} ================\n");
        }
        ok &= finish();
        if banners {
            let compute: f64 = stats[cells].iter().map(|s| s.seconds).sum();
            eprintln!("[{name}: {compute:.2}s compute across cells]");
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_aliases_are_unique() {
        let mut all: Vec<&str> = TARGETS.iter().flat_map(Target::names).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate target name or alias");
        for name in ["ext-scale", "all", "harness-bench", "help"] {
            assert!(
                find(name).is_none(),
                "{name} is a command outside the table"
            );
        }
    }

    /// `repro all` renders in the same order it always has: stdout is
    /// compared byte for byte across versions.
    #[test]
    fn row_order_is_the_all_order() {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "tab2",
                "eq1",
                "fig1",
                "fig2",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "tab3",
                "tab4",
                "ext-refine",
                "ext-staleness",
                "ext-rack",
                "ext-overlap",
                "ext-pipeline",
                "ext-replay",
                "ext-faults",
                "ext-serve",
                "ext-chaos",
                "ext-obs",
                "ext-diagnose",
            ]
        );
    }

    #[test]
    fn aliases_resolve_to_their_row() {
        for (alias, name) in [("fig1a", "fig1"), ("fig1b", "fig1"), ("fig10b", "fig10")] {
            assert_eq!(find(alias).map(|t| t.name), Some(name));
        }
    }
}

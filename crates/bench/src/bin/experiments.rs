//! Regenerates the paper's evaluation artifacts.
//!
//! ```text
//! experiments <id>... [--scale small|medium|paper]
//!
//! ids: fig2 table2 fig4 fig5 fig6 fig7 fig8 fig9 table3 table4 fig10 fig11
//!      sec82 ablation_m ablation_bitmap ablation_hh headline checks all
//! ```
//!
//! Output goes to stdout, one plain-text table per artifact (see
//! `bond_bench::report`). An unknown id prints a message to stderr and
//! exits with status 2; an experiment that reports an error exits with
//! status 1.

use bond_bench::{ablation, figures, multifeature, report, tables, ExperimentScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::Medium;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--scale" {
            match iter.next().and_then(|s| ExperimentScale::parse(s)) {
                Some(s) => scale = s,
                None => {
                    eprintln!("--scale expects one of: small, medium, paper");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg.clone());
        }
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }
    let all = [
        "fig2",
        "table2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "table3",
        "table4",
        "fig10",
        "fig11",
        "sec82",
        "ablation_m",
        "ablation_bitmap",
        "ablation_hh",
        "headline",
        "checks",
    ];
    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        all.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };

    println!("# BOND experiments (scale: {scale:?})\n");
    for id in selected {
        run(id, scale);
    }
}

fn run(id: &str, scale: ExperimentScale) {
    let start = std::time::Instant::now();
    match id {
        "fig2" => print!("{}", report::render_fig2(&figures::fig2(scale))),
        "table2" => print!("{}", report::render_table2(&tables::table2())),
        "fig4" => print!(
            "{}",
            report::render_series("Figure 4: pruning of Hq and Hh", &figures::fig4(scale))
        ),
        "fig5" => print!(
            "{}",
            report::render_series("Figure 5: pruning of Eq and Ev", &figures::fig5(scale))
        ),
        "fig6" => print!(
            "{}",
            report::render_series("Figure 6: effect of k on Hq", &figures::fig6(scale))
        ),
        "fig7" => print!(
            "{}",
            report::render_series(
                "Figure 7: effect of the dimension ordering on Hq",
                &figures::fig7(scale)
            )
        ),
        "fig8" => print!(
            "{}",
            report::render_series(
                "Figure 8: impact of dimensionality on Ev",
                &figures::fig8(scale)
            )
        ),
        "fig9" => print!(
            "{}",
            report::render_series(
                "Figure 9: Hq on exact vs. 8-bit compressed fragments",
                &figures::fig9(scale)
            )
        ),
        "table3" => print!(
            "{}",
            report::render_timing("Table 3: BOND vs. sequential scan", &tables::table3(scale))
        ),
        "table4" => print!("{}", report::render_table4(&tables::table4(scale))),
        "fig10" => print!(
            "{}",
            report::render_series(
                "Figure 10: effect of data skew on Ev (clustered datasets)",
                &figures::fig10(scale)
            )
        ),
        "fig11" => print!(
            "{}",
            report::render_series(
                "Figure 11: effect of weight skew (weighted Euclidean, theta = 0)",
                &figures::fig11(scale)
            )
        ),
        "sec82" => match multifeature::sec82(scale) {
            Ok(results) => print!("{}", report::render_multifeature(&results)),
            Err(e) => {
                eprintln!("sec82 failed: {e}");
                std::process::exit(1);
            }
        },
        "ablation_m" => print!(
            "{}",
            report::render_ablation("Ablation: block size m", &ablation::ablation_m(scale))
        ),
        "ablation_bitmap" => print!(
            "{}",
            report::render_ablation(
                "Ablation: bitmap-to-list switch threshold",
                &ablation::ablation_bitmap(scale)
            )
        ),
        "ablation_hh" => print!(
            "{}",
            report::render_ablation(
                "Ablation: Hq vs. Hh bookkeeping",
                &ablation::ablation_hh(scale)
            )
        ),
        "headline" => {
            let h = figures::headline(scale);
            println!("== Headline statistics (Hq, k = 10) ==");
            println!(
                "average fraction of the collection pruned after 1/5 of the dims: {:.1}%",
                h.pruned_after_fifth * 100.0
            );
            println!("average dimensions needed to isolate the top k: {:.1}", h.avg_dims_to_top_k);
        }
        "checks" => {
            println!("== Qualitative shape checks ==");
            let mut failed = 0;
            for (name, ok) in figures::check_shapes(scale) {
                println!("[{}] {name}", if ok { "PASS" } else { "FAIL" });
                if !ok {
                    failed += 1;
                }
            }
            if failed > 0 {
                eprintln!("{failed} shape checks failed");
            }
        }
        other => {
            eprintln!("unknown experiment id: {other}");
            std::process::exit(2);
        }
    }
    println!("({id} finished in {:.1} s)\n", start.elapsed().as_secs_f64());
}

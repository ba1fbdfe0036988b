//! Iterated 3×3 box blur (the 2D9P box stencil) on a synthetic test
//! pattern — the image-processing workload the paper's §2.2 calls out as
//! the case where DLT's transform overhead hurts (few time steps), which
//! the local transpose layout avoids. Each scheme runs through a reused
//! type-erased plan ([`Plan::stencil`] over a runtime [`StencilSpec`])
//! with **reflect** edges (`"2d9p@reflect"`) — the standard
//! edge-extension for image filtering, so the blur never bleeds a
//! constant border color into the frame.
//!
//! ```sh
//! cargo run --release --example blur2d [-- passes] [--smoke]
//! ```

use std::time::Instant;

use stencil_lab::prelude::*;

/// CI smoke mode: shrink the run to seconds (`--smoke` anywhere in args).
fn smoke() -> bool {
    std::env::args().skip(1).any(|a| a == "--smoke")
}

fn main() -> std::io::Result<()> {
    let isa = Isa::detect_best();
    let (nx, ny) = if smoke() {
        (320usize, 240usize)
    } else {
        (1024, 768)
    };
    let passes: usize = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(if smoke() { 3 } else { 6 });
    let blur: StencilSpec = "2d9p@reflect".parse().expect("paper stencil name");

    // Checkerboard + circles test pattern.
    let img = Grid2::from_fn(nx, ny, 1, 0.0, |y, x| {
        let checker = ((x / 64 + y / 64) % 2) as f64;
        let cx = (x as f64 - nx as f64 / 2.0) / 80.0;
        let cy = (y as f64 - ny as f64 / 2.0) / 80.0;
        let rings = (0.5 + 0.5 * ((cx * cx + cy * cy).sqrt() * 6.0).sin()).round();
        0.7 * checker + 0.3 * rings
    });

    println!("{nx}x{ny} image, {passes} blur passes, reflect edges ({isa})");
    println!("{:<14} {:>10}", "method", "time");
    let mut blurred = None;
    for method in [
        Method::Scalar,
        Method::MultiLoad,
        Method::Dlt,
        Method::TransLayout,
    ] {
        let mut plan = Plan::new(Shape::d2(nx, ny))
            .method(method)
            .isa(isa)
            .stencil(&blur)
            .expect("valid plan");
        let mut g = img.clone();
        let t0 = Instant::now();
        plan.run(&mut g, passes);
        println!("{:<14} {:>8.2?}", method.name(), t0.elapsed());
        if let Some(reference) = &blurred {
            assert_eq!(stencil_lab::core::verify::max_abs_diff(&g, reference), 0.0);
        } else {
            blurred = Some(g);
        }
    }

    // Write before/after PGMs.
    let g = blurred.unwrap();
    for (name, grid) in [("blur2d_in.pgm", &img), ("blur2d_out.pgm", &g)] {
        let mut out = Vec::with_capacity(nx * ny + 64);
        use std::io::Write;
        writeln!(out, "P5\n{nx} {ny}\n255")?;
        for y in 0..ny {
            for &v in grid.row(y) {
                out.push((255.0 * v.clamp(0.0, 1.0)) as u8);
            }
        }
        std::fs::write(name, out)?;
        println!("wrote {name}");
    }
    Ok(())
}

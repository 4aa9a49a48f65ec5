//! Berkeley `.pla` text format for multiple-output PLAs (the espresso
//! interchange format): `.i/.o/.p` directives and `inputs outputs` cube
//! lines with `1`/`0`/`-` literals.

use crate::Pla;
use ioenc_cube::{Cover, Cube, VarSpec};

/// Renders a minimized cover of `pla` (PLA shape: binary inputs then one
/// output variable) in `.pla` text, with `pla`'s declared input and output
/// counts.
///
/// Output columns print `1` for an asserted output and `0` otherwise (type
/// `f` semantics, espresso's default). A 1-output PLA prints one output
/// column: the unused second part of its output variable is not an output.
///
/// # Panics
///
/// Panics if the cover is not over `pla`'s spec.
pub fn cover_to_pla_text(cover: &Cover, pla: &Pla) -> String {
    let spec = cover.spec();
    assert!(spec == pla.spec(), "cover is not over the PLA's spec");
    let (inputs, outputs) = (pla.inputs(), pla.outputs());
    let mut out = String::new();
    out.push_str(&format!(".i {inputs}\n.o {outputs}\n.p {}\n", cover.len()));
    for cube in cover.cubes() {
        for v in 0..inputs {
            let zero = cube.part(spec, v, 0);
            let one = cube.part(spec, v, 1);
            out.push(match (zero, one) {
                (true, true) => '-',
                (false, true) => '1',
                (true, false) => '0',
                (false, false) => '~', // void literal; never in valid covers
            });
        }
        out.push(' ');
        for p in 0..outputs {
            out.push(if cube.part(spec, inputs, p) { '1' } else { '0' });
        }
        out.push('\n');
    }
    out.push_str(".e\n");
    out
}

/// Parses a `.pla` text into a [`Pla`] (on-set from `1` outputs, don't
/// cares from `-`/`2` outputs; `0` outputs contribute nothing, per type-`f`
/// semantics).
///
/// # Errors
///
/// Returns a message naming the offending line for malformed input.
pub fn parse_pla_text(text: &str) -> Result<Pla, String> {
    let mut num_inputs: Option<usize> = None;
    let mut num_outputs: Option<usize> = None;
    let mut rows: Vec<(String, String)> = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}", ln + 1);
        if let Some(rest) = line.strip_prefix('.') {
            let mut it = rest.split_whitespace();
            match it.next().unwrap_or("") {
                "i" => {
                    num_inputs = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad .i"))?,
                    )
                }
                "o" => {
                    num_outputs = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad .o"))?,
                    )
                }
                "p" | "e" | "end" | "type" | "ilb" | "ob" => {}
                other => return Err(err(&format!("unknown directive '.{other}'"))),
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 {
            return Err(err("expected 'inputs outputs'"));
        }
        rows.push((fields[0].to_string(), fields[1].to_string()));
    }
    let ni = num_inputs.ok_or("missing .i directive")?;
    let no = num_outputs.ok_or("missing .o directive")?;
    let mut pla = Pla::new(ni, no);
    for (i, o) in &rows {
        if i.len() != ni {
            return Err(format!(
                "input cube '{i}' has width {} (want {ni})",
                i.len()
            ));
        }
        if o.len() != no {
            return Err(format!(
                "output cube '{o}' has width {} (want {no})",
                o.len()
            ));
        }
        let input: Vec<Option<bool>> = i
            .chars()
            .map(|c| match c {
                '0' => Ok(Some(false)),
                '1' => Ok(Some(true)),
                '-' | '~' | '2' => Ok(None),
                c => Err(format!("bad input character '{c}'")),
            })
            .collect::<Result<_, _>>()?;
        let mut on_outputs = Vec::new();
        let mut dc_outputs = Vec::new();
        for (j, c) in o.chars().enumerate() {
            match c {
                '1' | '4' => on_outputs.push(j),
                '-' | '~' | '2' => dc_outputs.push(j),
                '0' | '3' => {}
                c => return Err(format!("bad output character '{c}'")),
            }
        }
        if !on_outputs.is_empty() {
            pla.add_on(&input, &on_outputs);
        }
        if !dc_outputs.is_empty() {
            pla.add_dc(&input, &dc_outputs);
        }
    }
    Ok(pla)
}

/// Builds a cube in PLA shape from literal strings (test helper and
/// building block for tools).
///
/// # Errors
///
/// Returns a message on malformed literals.
pub fn pla_cube(spec: &VarSpec, inputs: &str, outputs: &str) -> Result<Cube, String> {
    Cube::parse(
        spec,
        &format!(
            "{} {}",
            inputs
                .chars()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" "),
            outputs
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize;
    use ioenc_cube::Cover;

    #[test]
    fn round_trip_through_pla_text() {
        let mut pla = Pla::new(3, 2);
        pla.add_on(&[Some(true), Some(false), None], &[0]);
        pla.add_on(&[None, Some(true), Some(true)], &[0, 1]);
        let m = pla.minimize();
        let text = cover_to_pla_text(&m, &pla);
        assert!(text.starts_with(".i 3\n.o 2\n"));
        let again = parse_pla_text(&text).unwrap();
        let m2 = again.minimize();
        // Same function: compare minterm by minterm over the PLA domain.
        let spec = m.spec();
        for mt in Cover::enumerate_minterms(spec) {
            assert_eq!(m.contains_minterm(&mt), m2.contains_minterm(&mt));
        }
    }

    #[test]
    fn parses_dont_care_outputs_as_dc_set() {
        let text = ".i 2\n.o 2\n10 1-\n.e\n";
        let pla = parse_pla_text(text).unwrap();
        assert_eq!(pla.on_set().len(), 1);
        assert_eq!(pla.dc_set().len(), 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_pla_text(".o 1\n.e\n").is_err());
        assert!(parse_pla_text(".i 2\n.o 1\n1 1\n.e\n").is_err());
        assert!(parse_pla_text(".i 1\n.o 1\n1 x\n.e\n").is_err());
        assert!(parse_pla_text(".i 1\n.o 1\n.q\n.e\n").is_err());
        assert!(parse_pla_text(".i 1\n.o 1\n1 1 1\n.e\n").is_err());
    }

    #[test]
    fn minimization_of_parsed_pla_matches_direct_construction() {
        let text = "\
# or of two variables, one output
.i 2
.o 1
10 1
01 1
11 1
.e
";
        let pla = parse_pla_text(text).unwrap();
        let m = pla.minimize();
        assert_eq!(m.len(), 2);
        let direct = {
            let mut p = Pla::new(2, 1);
            p.add_on(&[Some(true), Some(false)], &[0]);
            p.add_on(&[Some(false), Some(true)], &[0]);
            p.add_on(&[Some(true), Some(true)], &[0]);
            minimize(p.on_set(), p.dc_set(), None)
        };
        assert_eq!(m.len(), direct.len());
    }
}

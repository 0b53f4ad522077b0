//! Sampled addresses folded by function: the benchmark binary's own
//! symbols, read with `nm`, placed through its load segments, read
//! with `readelf`; anything else mapped (`[vdso]`, libc) by its name.

use std::path::Path;
use std::process::Command;

use crate::procfs::{mapping_of, Mapping};

/// A binary's functions and load segments.
pub struct Symbols {
    /// `PT_LOAD` segments: (file offset, virtual address, file size).
    segments: Vec<(u64, u64, u64)>,
    /// Functions by address: (address, size — 0 when `nm` gave none,
    /// name), sorted.
    functions: Vec<(u64, u64, String)>,
}

impl Symbols {
    /// Reads `binary`'s symbols and segments.
    pub fn of(binary: &Path) -> Result<Symbols, String> {
        let nm = tool("nm", &["--defined-only", "-n", "-S", "-C"], binary)?;
        let readelf = tool("readelf", &["-lW"], binary)?;
        Ok(Symbols::parse(&nm, &readelf))
    }

    /// Symbols from `nm --defined-only -n -S -C` and `readelf -lW`
    /// output.
    pub fn parse(nm: &str, readelf: &str) -> Symbols {
        let mut functions = parse_nm(nm);
        functions.sort();
        Symbols {
            segments: parse_segments(readelf),
            functions,
        }
    }

    /// The function at file offset `offset` of the binary.
    pub fn at_offset(&self, offset: u64) -> Option<&str> {
        let &(file, vaddr, _) = self
            .segments
            .iter()
            .find(|&&(file, _, size)| file <= offset && offset < file + size)?;
        let addr = offset - file + vaddr;
        let i = self
            .functions
            .partition_point(|f| f.0 <= addr)
            .checked_sub(1)?;
        let (start, size, name) = &self.functions[i];
        (*size == 0 || addr < start + size).then_some(name.as_str())
    }
}

fn tool(name: &str, args: &[&str], binary: &Path) -> Result<String, String> {
    let out = Command::new(name)
        .args(args)
        .arg(binary)
        .output()
        .map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} {}: {}", binary.display(), out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The `LOAD` lines of `readelf -lW`: offset, virtual address, file
/// size.
fn parse_segments(text: &str) -> Vec<(u64, u64, u64)> {
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
    text.lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.first() != Some(&"LOAD") || f.len() < 6 {
                return None;
            }
            Some((hex(f[1])?, hex(f[2])?, hex(f[4])?))
        })
        .collect()
}

/// The function symbols (`t`, `T`, `w`, `W`) of `nm -S` output, with
/// a Rust symbol's hash suffix dropped.
fn parse_nm(text: &str) -> Vec<(u64, u64, String)> {
    text.lines()
        .filter_map(|line| {
            let mut f = line.splitn(4, ' ');
            let addr = u64::from_str_radix(f.next()?, 16).ok()?;
            let second = f.next()?;
            // With a size the type is third; without, second.
            let (size, kind, name) = match u64::from_str_radix(second, 16) {
                Ok(size) if second.len() > 1 => (size, f.next()?, f.next()?),
                _ => (0, second, line.splitn(3, ' ').nth(2)?),
            };
            matches!(kind, "t" | "T" | "w" | "W").then(|| (addr, size, unhashed(name)))
        })
        .collect()
}

/// `name` without a trailing `::h<16 hex digits>`.
fn unhashed(name: &str) -> String {
    match name.rsplit_once("::h") {
        Some((path, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            path.to_string()
        }
        _ => name.to_string(),
    }
}

/// Names the code at `ip`: a function of `binary` (its path as `maps`
/// shows it), or the basename of whatever else is mapped there.
pub fn fold(ip: u64, maps: &[Mapping], binary: &str, symbols: &Symbols) -> String {
    let Some(m) = mapping_of(maps, ip) else {
        return "[unmapped]".to_string();
    };
    if m.path == binary {
        let offset = ip - m.start + m.offset;
        return match symbols.at_offset(offset) {
            Some(name) => name.to_string(),
            None => format!("{binary}+{offset:#x}"),
        };
    }
    match m.path.rsplit('/').next() {
        Some("") | None => "[anonymous]".to_string(),
        Some(name) => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::parse_maps;

    const READELF: &str = "\
Program Headers:
  Type           Offset   VirtAddr           PhysAddr           FileSiz  MemSiz   Flg Align
  PHDR           0x000040 0x0000000000000040 0x0000000000000040 0x0002d8 0x0002d8 R   0x8
  LOAD           0x000000 0x0000000000000000 0x0000000000000000 0x020000 0x020000 R   0x1000
  LOAD           0x020000 0x0000000000021000 0x0000000000021000 0x080000 0x080000 R E 0x1000
";

    const NM: &str = "\
0000000000021000 0000000000000040 T main
0000000000021040 0000000000000100 t flash_net::server::Shard<E>::turn::h0123456789abcdef
0000000000021200 T _start
0000000000021300 0000000000000010 D not_a_function
0000000000021400 0000000000000020 W <bytes::Bytes as core::ops::drop::Drop>::drop
";

    #[test]
    fn nm_lines_keep_functions_and_drop_hashes() {
        let f = parse_nm(NM);
        let names: Vec<&str> = f.iter().map(|(_, _, n)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "main",
                "flash_net::server::Shard<E>::turn",
                "_start",
                "<bytes::Bytes as core::ops::drop::Drop>::drop"
            ]
        );
        assert_eq!(f[2], (0x21200, 0, "_start".to_string()));
        assert_eq!(unhashed("a::hxyz"), "a::hxyz");
    }

    #[test]
    fn an_address_folds_to_its_function_or_its_mapping() {
        let symbols = Symbols::parse(NM, READELF);
        // The text segment is file offset 0x20000, address 0x21000.
        assert_eq!(
            symbols.at_offset(0x20050),
            Some("flash_net::server::Shard<E>::turn")
        );
        assert_eq!(symbols.at_offset(0x20140), None, "past the function's size");
        assert_eq!(
            symbols.at_offset(0x20210),
            Some("_start"),
            "no size: nearest below"
        );
        let bin = "/opt/flash-loadbench";
        let maps = parse_maps(&format!(
            "5000-6000 r--p 00000000 08:01 1 {bin}\n\
             6000-9000 r-xp 00020000 08:01 1 {bin}\n\
             a000-b000 r-xp 00000000 08:01 2 /usr/lib/libc.so.6\n\
             c000-d000 r-xp 00000000 00:00 0 [vdso]\n"
        ));
        assert_eq!(
            fold(0x6045, &maps, bin, &symbols),
            "flash_net::server::Shard<E>::turn"
        );
        assert_eq!(
            fold(0x6000 + 0x400, &maps, bin, &symbols),
            "<bytes::Bytes as core::ops::drop::Drop>::drop"
        );
        assert_eq!(fold(0xa010, &maps, bin, &symbols), "libc.so.6");
        assert_eq!(fold(0xc010, &maps, bin, &symbols), "[vdso]");
        assert_eq!(fold(0x10, &maps, bin, &symbols), "[unmapped]");
        assert_eq!(
            fold(0x6000 + 0x2f00, &maps, bin, &symbols),
            format!("{bin}+0x22f00")
        );
    }
}

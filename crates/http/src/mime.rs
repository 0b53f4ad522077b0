//! File-extension → MIME type mapping (the 1999 web's content mix).

/// Returns the MIME type for a path based on its extension.
pub fn content_type(path: &str) -> &'static str {
    let ext = path
        .rsplit('/')
        .next()
        .and_then(|name| name.rsplit_once('.'))
        .map(|(_, e)| e)
        .unwrap_or("");
    match ext.to_ascii_lowercase().as_str() {
        "html" | "htm" => "text/html",
        "txt" => "text/plain",
        "gif" => "image/gif",
        "jpg" | "jpeg" => "image/jpeg",
        "png" => "image/png",
        "ps" => "application/postscript",
        "pdf" => "application/pdf",
        "gz" | "tgz" => "application/gzip",
        "tar" => "application/x-tar",
        "zip" => "application/zip",
        "mp3" => "audio/mpeg",
        "mpg" | "mpeg" => "video/mpeg",
        "css" => "text/css",
        "js" => "application/javascript",
        _ => "application/octet-stream",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_types() {
        assert_eq!(content_type("/index.html"), "text/html");
        assert_eq!(content_type("/pics/me.JPG"), "image/jpeg");
        assert_eq!(content_type("/paper.ps"), "application/postscript");
        assert_eq!(content_type("/data.tar"), "application/x-tar");
    }

    #[test]
    fn unknown_and_missing_extensions_default() {
        assert_eq!(content_type("/noext"), "application/octet-stream");
        assert_eq!(content_type("/weird.xyz"), "application/octet-stream");
        assert_eq!(content_type("/"), "application/octet-stream");
    }

    #[test]
    fn dots_in_directories_do_not_confuse() {
        assert_eq!(content_type("/v1.2/readme"), "application/octet-stream");
        assert_eq!(content_type("/v1.2/readme.txt"), "text/plain");
    }
}
